package bench

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/reap"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// hostSpec is a single-server run: the functions deployed on one core, the
// warm-up mechanisms attached to every instance, whether each invocation
// starts from flushed microarchitectural state, and how many back-to-back
// invocations of each function one pass makes.
type hostSpec struct {
	functions     []workload.Workload
	jukebox, reap bool
	flush         bool
	perFunc       int
}

// serverConfig is the server the spec deploys on.
func (s hostSpec) serverConfig() serverless.Config {
	cfg := serverless.Config{CPU: cpu.SkylakeConfig()}
	if s.jukebox {
		jb := core.DefaultConfig()
		cfg.Jukebox = &jb
	}
	if s.reap {
		rc := reap.DefaultConfig()
		cfg.Reap = &rc
	}
	return cfg
}

// idBase is the first invocation id a seed's instances use, so distinct
// seeds walk distinct instruction streams.
func idBase(seed uint64) uint64 { return seed << 20 }

// host is a set-up single-server run: instances deployed and warmed once.
type host struct {
	spec  hostSpec
	srv   *serverless.Server
	insts []*serverless.Instance
	// warmID[i] is the id of instance i's warm-up invocation; its measured
	// invocations follow it.
	warmID []uint64
}

// suite builds the named functions of the paper's suite.
func suite(names []string) ([]workload.Workload, error) {
	var ws []workload.Workload
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// newHost builds the server, deploys every function with the seed's ids and
// runs one warm-up invocation of each (in the flush regime, after a flush),
// then zeroes every counter so a pass counts only its own work.
func newHost(spec hostSpec, seed uint64) (*host, error) {
	srv, err := serverless.NewErr(spec.serverConfig())
	if err != nil {
		return nil, err
	}
	h := &host{spec: spec, srv: srv}
	for i, w := range spec.functions {
		inst := srv.Deploy(w)
		inst.Invocations = idBase(seed) + uint64(i)<<12
		h.insts = append(h.insts, inst)
		h.warmID = append(h.warmID, inst.Invocations)
	}
	for _, inst := range h.insts {
		if spec.flush {
			srv.FlushMicroarch()
		}
		if err := faults.Audit(srv.Invoke(inst)); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", inst.Workload.Name, err)
		}
	}
	c := srv.Core
	c.Hier.ResetStats()
	c.MMU.ResetStats()
	c.BP.ResetStats()
	c.BTB.ResetStats()
	for _, inst := range h.insts {
		if inst.Jukebox != nil {
			inst.Jukebox.ResetStats()
		}
		if inst.Reap != nil {
			inst.Reap.ResetStats()
		}
	}
	return h, nil
}

// hostCounts are the operation counts the single-host layers keep over a
// pass; the attribution multiplies replayed per-op costs by them.
type hostCounts struct {
	invocations, instrs, flushes    uint64
	fetches, data, translations     uint64
	branches, mispredicts, resteers uint64
	itlbMisses, dtlbMisses          uint64
	demand, l1iMisses, l1dMisses    uint64
	l2Misses, llcMisses, evictions  uint64
	prefetchFills, prefetchUsed     uint64
	l2InstrFills, l2InstrUsed       uint64
	jbReplays, jbPrefetches         uint64
	jbRecorded, jbDropped           uint64
	reapRestores, reapRestored      uint64
	reapUsed, reapAccesses          uint64
	pagesMapped                     uint64
}

// hostPass is what one pass over a host produced.
type hostPass struct {
	opMs     []float64 // host time of each op: flush (if any) plus Invoke
	failed   int       // ops whose result or pass-level ledger failed audit
	problems []string  // why ops failed
	digest   uint64    // hash of every simulated counter the pass produced
	counts   hostCounts
	invokeNs int64 // summed Invoke span time, traced passes only
	flushNs  int64 // summed FlushMicroarch span time, traced passes only
}

// run makes one pass: for each function in turn, spec.perFunc back-to-back
// invocations (each after a flush in the flush regime). Each op is timed
// as the user of Server sees it; with a tracer every op, flush and Invoke is
// also a span.
func (h *host) run(tr *Tracer) hostPass {
	var p hostPass
	d := newDigest()
	op := 0
	for _, inst := range h.insts {
		for k := 0; k < h.spec.perFunc; k++ {
			tr.SetRequest(op)
			var res cpu.RunResult
			start := time.Now()
			_ = tr.Scope(spanOp, func() error {
				if h.spec.flush {
					o := tr.Begin(spanFlush)
					h.srv.FlushMicroarch()
					tr.End(o)
				}
				o := tr.Begin(spanInvoke)
				res = h.srv.Invoke(inst)
				tr.End(o)
				return nil
			})
			p.opMs = append(p.opMs, float64(time.Since(start))/1e6)
			if err := faults.Audit(res); err != nil {
				p.failed++
				p.problems = append(p.problems, fmt.Sprintf("%s: %v", inst.Workload.Name, err))
			}
			d.run(res)
			p.counts.instrs += res.Instrs
			op++
		}
	}
	p.counts.invocations = uint64(op)
	if h.spec.flush {
		p.counts.flushes = uint64(op)
	}
	if err := h.collect(&p.counts, d); err != nil {
		p.failed = len(p.opMs)
		p.problems = append(p.problems, err.Error())
	}
	p.digest = d.sum()
	_, p.invokeNs = tr.Total(spanInvoke)
	_, p.flushNs = tr.Total(spanFlush)
	return p
}

// collect reads the layers' counters into c and the digest, and checks the
// pass-level ledgers: Jukebox and REAP conservation always, cache-counter
// conservation in the flush regime (where every window starts empty).
func (h *host) collect(c *hostCounts, d *digest) error {
	cc := h.srv.Core
	hier := cc.Hier
	hier.DrainUnusedPrefetches()
	for _, cache := range []*mem.Cache{hier.L1I, hier.L1D, hier.L2, hier.LLC} {
		s := &cache.Stats
		d.text(s)
		for k := mem.Instr; k <= mem.Data; k++ {
			c.prefetchFills += s.PrefetchFills[k]
			c.prefetchUsed += s.PrefetchUsed[k]
			c.demand += s.DemandAccesses[k]
		}
		c.evictions += s.Evictions
	}
	c.fetches = hier.L1I.Stats.DemandAccesses[mem.Instr]
	c.data = hier.L1D.Stats.DemandAccesses[mem.Data]
	c.l1iMisses = hier.L1I.Stats.DemandMisses[mem.Instr]
	c.l1dMisses = hier.L1D.Stats.DemandMisses[mem.Data]
	c.l2Misses = hier.L2.Stats.DemandMisses[mem.Instr] + hier.L2.Stats.DemandMisses[mem.Data]
	c.llcMisses = hier.LLC.Stats.DemandMisses[mem.Instr] + hier.LLC.Stats.DemandMisses[mem.Data]
	c.l2InstrFills = hier.L2.Stats.PrefetchFills[mem.Instr]
	c.l2InstrUsed = hier.L2.Stats.PrefetchUsed[mem.Instr]
	c.itlbMisses = cc.MMU.ITLB.Stats.Misses
	c.dtlbMisses = cc.MMU.DTLB.Stats.Misses
	c.translations = cc.MMU.ITLB.Stats.Accesses + cc.MMU.DTLB.Stats.Accesses
	c.branches = cc.BP.Stats.Predictions + cc.BTB.Stats.Lookups
	c.mispredicts = cc.BP.Stats.Mispredicts
	c.resteers = cc.BTB.Stats.Resteers
	d.text(cc.MMU.ITLB.Stats, cc.MMU.DTLB.Stats, cc.BP.Stats, cc.BTB.Stats)
	for _, inst := range h.insts {
		c.pagesMapped += uint64(inst.AS.MappedPages())
		if jb := inst.Jukebox; jb != nil {
			d.text(jb.Stats)
			c.jbPrefetches += jb.Stats.ReplayPrefetches
			c.jbRecorded += jb.Stats.RecordedEntries
			c.jbDropped += jb.Stats.DroppedEntries
			if err := faults.AuditJukebox(jb.Stats); err != nil {
				return fmt.Errorf("%s: %w", inst.Workload.Name, err)
			}
		}
		if rp := inst.Reap; rp != nil {
			d.text(rp.Stats)
			c.reapRestored += rp.Stats.RestoredPages
			c.reapUsed += rp.Stats.UsedPages
			if err := faults.AuditReap(rp.Stats); err != nil {
				return fmt.Errorf("%s: %w", inst.Workload.Name, err)
			}
		}
	}
	if h.spec.jukebox {
		c.jbReplays = c.invocations
	}
	if h.spec.reap {
		c.reapRestores = c.invocations
		c.reapAccesses = c.fetches + c.data
	}
	if h.spec.flush {
		// Counter conservation holds for windows that start from flushed
		// caches, as runner.MeasureInstance audits the lukewarm regime.
		for _, a := range []struct {
			name  string
			cache *mem.Cache
		}{{"L1I", hier.L1I}, {"L2", hier.L2}, {"LLC", hier.LLC}} {
			if err := faults.AuditCache(a.name, a.cache.Stats); err != nil {
				return err
			}
		}
	}
	return nil
}

// digest hashes simulated results; two passes agree on it exactly when they
// simulated the same thing.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

// run folds one invocation's result in.
func (d *digest) run(r cpu.RunResult) {
	fmt.Fprint(d.h, r.Instrs, r.Cycles, r.Mispredicts, r.Resteers)
	for _, c := range r.Stack.Cycles {
		fmt.Fprint(d.h, " ", math.Float64bits(c))
	}
}

// text folds in the printed form of values: plain counter structs, whose %+v
// rendering is deterministic (fmt sorts map keys).
func (d *digest) text(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%+v|", v)
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
