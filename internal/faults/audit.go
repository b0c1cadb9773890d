package faults

import (
	"fmt"
	"math"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/predict"
	"lukewarm/internal/reap"
	"lukewarm/internal/serverless"
	"lukewarm/internal/topdown"
	"lukewarm/internal/vm"
)

// The invariants below are conservation properties: they must hold for any
// run, faulted or not. A violation means the simulator itself miscounted —
// the one failure mode graceful degradation cannot excuse.

// Audit checks one invocation result's conservation invariants:
//
//   - the Top-Down stack's instruction count matches the run's,
//   - the stack's cycle components sum to the run's total cycles
//     (within float tolerance),
//   - no category carries negative cycles.
func Audit(r cpu.RunResult) error {
	if r.Stack.Instrs != r.Instrs {
		return fmt.Errorf("faults: audit: stack instrs %d != run instrs %d", r.Stack.Instrs, r.Instrs)
	}
	total := r.Stack.Total()
	if total < 0 {
		return fmt.Errorf("faults: audit: negative stack total %g", total)
	}
	// Tolerance: accumulated float error across per-instruction charges.
	// float64(...) rounds each product, so arm64 cannot fuse it into the add (make fmagate).
	tol := float64(1e-6*float64(r.Cycles)) + 1.0
	if diff := math.Abs(total - float64(r.Cycles)); diff > tol {
		return fmt.Errorf("faults: audit: stack sums to %.3f cycles, run reports %d (diff %.3f > tol %.3f)",
			total, r.Cycles, diff, tol)
	}
	for c := topdown.Category(0); c < topdown.NumCategories; c++ {
		if r.Stack.Cycles[c] < 0 {
			return fmt.Errorf("faults: audit: category %v has negative cycles %g", c, r.Stack.Cycles[c])
		}
	}
	return nil
}

// AuditCache checks one cache's counter conservation: per traffic kind,
// hits + misses == accesses, and prefetch coverage accounting never exceeds
// the fills that back it.
func AuditCache(name string, s mem.CacheStats) error {
	for k := range s.DemandAccesses {
		if s.DemandHits[k]+s.DemandMisses[k] != s.DemandAccesses[k] {
			return fmt.Errorf("faults: audit %s kind %d: hits %d + misses %d != accesses %d",
				name, k, s.DemandHits[k], s.DemandMisses[k], s.DemandAccesses[k])
		}
	}
	for k := range s.PrefetchFills {
		if s.PrefetchUsed[k] > s.PrefetchFills[k] {
			return fmt.Errorf("faults: audit %s kind %d: prefetch used %d > fills %d",
				name, k, s.PrefetchUsed[k], s.PrefetchFills[k])
		}
	}
	return nil
}

// AuditJukebox checks a Jukebox's counters for self-consistency.
func AuditJukebox(s core.Stats) error {
	if s.LastRecordBytes < 0 {
		return fmt.Errorf("faults: audit jukebox: negative record bytes %d", s.LastRecordBytes)
	}
	if s.ReplayPrefetches > 0 && s.ReplayEntries == 0 {
		return fmt.Errorf("faults: audit jukebox: %d prefetches from zero replay entries", s.ReplayPrefetches)
	}
	return nil
}

// AuditReap checks a REAP recorder/restorer's conservation invariants:
// every replayed manifest page is installed or skipped exactly once, every
// installed page settles as used or wasted (never both — demanded and
// prefetched installs are never double-counted), prefetched bytes are
// line-exact and bounded by the pages the manifest named, and late pages
// are a subset of used ones.
func AuditReap(s reap.Stats) error {
	switch {
	case s.RestoredPages+s.SkippedResident != s.ReplayedPages:
		return fmt.Errorf("faults: audit reap: restored %d + skipped %d != replayed %d",
			s.RestoredPages, s.SkippedResident, s.ReplayedPages)
	case s.UsedPages+s.WastedPages > s.RestoredPages:
		return fmt.Errorf("faults: audit reap: used %d + wasted %d exceeds restored %d (double-counted install)",
			s.UsedPages, s.WastedPages, s.RestoredPages)
	case s.PrefetchedBytes != s.PrefetchedLines*mem.LineSize:
		return fmt.Errorf("faults: audit reap: prefetched bytes %d != %d lines x %d B",
			s.PrefetchedBytes, s.PrefetchedLines, mem.LineSize)
	case s.PrefetchedBytes > s.ReplayedPages*vm.PageSize:
		return fmt.Errorf("faults: audit reap: prefetched %d B exceeds manifest reach %d pages x %d B",
			s.PrefetchedBytes, s.ReplayedPages, vm.PageSize)
	case s.LatePages > s.UsedPages:
		return fmt.Errorf("faults: audit reap: late pages %d exceed used pages %d", s.LatePages, s.UsedPages)
	case s.WastedBytes != s.WastedPages*vm.PageSize:
		return fmt.Errorf("faults: audit reap: wasted bytes %d != %d pages x %d B",
			s.WastedBytes, s.WastedPages, vm.PageSize)
	case s.ManifestBytes < s.ManifestPages: // any positive entry width makes bytes >= pages
		return fmt.Errorf("faults: audit reap: manifest bytes %d below page count %d", s.ManifestBytes, s.ManifestPages)
	case s.DeltaRestores > s.Restores:
		return fmt.Errorf("faults: audit reap: delta restores %d exceed restores %d", s.DeltaRestores, s.Restores)
	}
	return nil
}

// AuditTraffic checks a traffic run's aggregate invariants, including
// dispatch conservation: every offered invocation is accounted for exactly
// once as served, shed or failed.
func AuditTraffic(r serverless.TrafficResult) error {
	switch {
	case r.Offered < 0 || r.Served < 0 || r.Shed < 0 || r.Failed < 0 || r.ColdStarts < 0:
		return fmt.Errorf("faults: audit traffic: negative counters (offered %d, served %d, shed %d, failed %d, cold %d)",
			r.Offered, r.Served, r.Shed, r.Failed, r.ColdStarts)
	case r.Served+r.Shed+r.Failed != r.Offered:
		return fmt.Errorf("faults: audit traffic: served %d + shed %d + failed %d != offered %d",
			r.Served, r.Shed, r.Failed, r.Offered)
	case r.ColdStarts > r.Served+r.Failed:
		return fmt.Errorf("faults: audit traffic: cold starts %d exceed dispatched %d", r.ColdStarts, r.Served+r.Failed)
	case r.PrewarmHits < 0 || r.PlacementMigrations < 0 || r.JukeboxRebinds < 0:
		return fmt.Errorf("faults: audit traffic: negative scheduling counters (prewarm %d, migrations %d, rebinds %d)",
			r.PrewarmHits, r.PlacementMigrations, r.JukeboxRebinds)
	case r.PlacementMigrations > r.Served+r.Failed || r.JukeboxRebinds > r.Served+r.Failed:
		return fmt.Errorf("faults: audit traffic: migrations %d / rebinds %d exceed dispatched %d",
			r.PlacementMigrations, r.JukeboxRebinds, r.Served+r.Failed)
	case r.ResidentMs < 0:
		return fmt.Errorf("faults: audit traffic: negative resident time %g ms", r.ResidentMs)
	case r.BusyFraction < 0 || r.BusyFraction > 1.000001:
		return fmt.Errorf("faults: audit traffic: busy fraction %g outside [0, 1]", r.BusyFraction)
	case r.SimulatedMs < 0:
		return fmt.Errorf("faults: audit traffic: negative simulated span %g ms", r.SimulatedMs)
	case r.CPI.N() != r.Served:
		return fmt.Errorf("faults: audit traffic: %d CPI samples for %d served", r.CPI.N(), r.Served)
	}
	// The per-function breakdown must conserve the fleet-wide counters.
	var served, cold, shed, failed int
	for _, f := range r.PerFunction {
		if f.Served < 0 || f.ColdStarts < 0 || f.Shed < 0 || f.Failed < 0 {
			return fmt.Errorf("faults: audit traffic: %s has negative counters (%d/%d/%d/%d)",
				f.Name, f.Served, f.ColdStarts, f.Shed, f.Failed)
		}
		served += f.Served
		cold += f.ColdStarts
		shed += f.Shed
		failed += f.Failed
	}
	if len(r.PerFunction) > 0 && (served != r.Served || cold != r.ColdStarts || shed != r.Shed || failed != r.Failed) {
		return fmt.Errorf("faults: audit traffic: per-function sums %d/%d/%d/%d != fleet %d/%d/%d/%d",
			served, cold, shed, failed, r.Served, r.ColdStarts, r.Shed, r.Failed)
	}
	// Readiness-tier accounting: every judged idle millisecond lands in
	// exactly one tier.
	if r.IdleMs < 0 || r.TierColdMs < 0 || r.TierResidentMs < 0 || r.TierPrewarmedMs < 0 {
		return fmt.Errorf("faults: audit traffic: negative tier times (idle %g, cold %g, resident %g, prewarmed %g)",
			r.IdleMs, r.TierColdMs, r.TierResidentMs, r.TierPrewarmedMs)
	}
	tol := float64(1e-6*r.IdleMs) + 1e-3
	if sum := r.TierColdMs + r.TierResidentMs + r.TierPrewarmedMs; math.Abs(sum-r.IdleMs) > tol {
		return fmt.Errorf("faults: audit traffic: tiers sum to %g ms, idle %g ms (diff > tol %g)",
			sum, r.IdleMs, tol)
	}
	// Synchronous dispatch-time replay: at most one charge per dispatched
	// invocation, time only when charges exist.
	if r.SyncReplays < 0 || r.SyncReplayMs < 0 {
		return fmt.Errorf("faults: audit traffic: negative sync-replay counters (%d, %g ms)",
			r.SyncReplays, r.SyncReplayMs)
	}
	if r.SyncReplays > r.Served+r.Failed {
		return fmt.Errorf("faults: audit traffic: %d sync replays exceed dispatched %d",
			r.SyncReplays, r.Served+r.Failed)
	}
	if r.SyncReplays == 0 && r.SyncReplayMs > 0 {
		return fmt.Errorf("faults: audit traffic: %g ms sync-replay time with zero sync replays", r.SyncReplayMs)
	}
	// The pre-warm ledger must conserve, and the per-function breakdown must
	// conserve the ledger: used pre-warms are counted at commit, wasted ones
	// at judgment or expiry, each exactly once.
	if err := AuditPredict(r.Prewarm, ""); err != nil {
		return err
	}
	var used, wasted int
	for _, f := range r.PerFunction {
		if f.PrewarmsUsed < 0 || f.PrewarmsWasted < 0 || f.PredJudged < 0 || f.PredAbsErrMsSum < 0 {
			return fmt.Errorf("faults: audit traffic: %s has negative pre-warm counters (%d used, %d wasted, %d judged, |err| sum %g)",
				f.Name, f.PrewarmsUsed, f.PrewarmsWasted, f.PredJudged, f.PredAbsErrMsSum)
		}
		used += f.PrewarmsUsed
		wasted += f.PrewarmsWasted
	}
	if len(r.PerFunction) > 0 && (used != r.Prewarm.Used || wasted != r.Prewarm.Wasted) {
		return fmt.Errorf("faults: audit traffic: per-function pre-warms %d used / %d wasted != ledger %d / %d",
			used, wasted, r.Prewarm.Used, r.Prewarm.Wasted)
	}
	return nil
}

// AuditPredict checks a pre-warm ledger's conservation invariants: every
// scheduled pre-warm settles as exactly one of used, partial or wasted;
// expiries are a subset of waste; and every used pre-warm corresponds to one
// invocation that skipped its dispatch replay. forecaster, when non-empty,
// enables forecaster-specific invariants: the schedule-peeking "oracle" on a
// deterministic schedule never records a miss — no partial warmth, no waste
// beyond end-of-run expiries, zero prediction error.
func AuditPredict(l predict.Ledger, forecaster string) error {
	switch {
	case l.Scheduled < 0 || l.Used < 0 || l.Partial < 0 || l.Wasted < 0 ||
		l.Expired < 0 || l.ReplaySkips < 0 || l.BudgetDenied < 0 || l.Judged < 0:
		return fmt.Errorf("faults: audit predict: negative counters in %+v", l)
	case l.AbsErrMsSum < 0 || l.PrewarmBusyMs < 0:
		return fmt.Errorf("faults: audit predict: negative accumulators (|err| sum %g, busy %g ms)",
			l.AbsErrMsSum, l.PrewarmBusyMs)
	case l.Used+l.Partial+l.Wasted != l.Scheduled:
		return fmt.Errorf("faults: audit predict: used %d + partial %d + wasted %d != scheduled %d",
			l.Used, l.Partial, l.Wasted, l.Scheduled)
	case l.Expired > l.Wasted:
		return fmt.Errorf("faults: audit predict: expired %d exceed wasted %d", l.Expired, l.Wasted)
	case l.ReplaySkips != l.Used:
		return fmt.Errorf("faults: audit predict: %d replay skips for %d used pre-warms", l.ReplaySkips, l.Used)
	case l.Used == 0 && l.UsedReplayBytes != 0,
		l.Partial == 0 && l.PartialReplayBytes != 0,
		l.Wasted == 0 && l.WastedReplayBytes != 0:
		return fmt.Errorf("faults: audit predict: replay bytes charged without pre-warms (%d/%d/%d B for %d/%d/%d)",
			l.UsedReplayBytes, l.PartialReplayBytes, l.WastedReplayBytes, l.Used, l.Partial, l.Wasted)
	}
	if forecaster == "oracle" {
		tol := float64(1e-6*float64(l.Judged)) + 1e-6
		switch {
		case l.Partial != 0:
			return fmt.Errorf("faults: audit predict: oracle recorded %d partial pre-warms", l.Partial)
		case l.Wasted != l.Expired:
			return fmt.Errorf("faults: audit predict: oracle wasted %d pre-warms beyond %d expiries", l.Wasted, l.Expired)
		case l.AbsErrMsSum > tol:
			return fmt.Errorf("faults: audit predict: oracle prediction error %g ms (tol %g)", l.AbsErrMsSum, tol)
		}
	}
	return nil
}

// FleetCounters is the conservation ledger of one cluster run, flattened so
// AuditFleet can check it without importing the cluster package (which
// imports faults). The cluster result's Counters method produces it.
type FleetCounters struct {
	// Request-level accounting: every injected request resolves exactly once.
	Offered, Served, Shed, Failed int
	// Shed decomposition.
	ShedLowPriority, TierRejected, ValveShed int
	// Failure decomposition.
	DeadlineFailed, RetriesExhausted int
	// Attempt-level accounting: attempts that failed either spawned a retry
	// or exhausted the budget.
	FailedAttempts, Retries int
	// Node-side dispatch accounting (hedges make node attempts exceed
	// request successes).
	NodeOffered, NodeServed, NodeShed, NodeFailed int
	// Hedging: wasted completions, and hedges that rescued a failed primary.
	Hedges, WastedHedges, HedgeRescues int
	// InstanceCrashes is the node-side count of doomed dispatches.
	InstanceCrashes int
	// ServedWhileDown counts node completions attributed to a node that was
	// down or ejected at dispatch time — must always be zero.
	ServedWhileDown int
}

// AuditFleet checks a cluster run's conservation invariants: injected ==
// served + shed + failed, retries never double-count, hedge work is fully
// attributed, and no request was served by a down or ejected node.
func AuditFleet(c FleetCounters) error {
	switch {
	case c.Offered < 0 || c.Served < 0 || c.Shed < 0 || c.Failed < 0 ||
		c.ShedLowPriority < 0 || c.TierRejected < 0 || c.ValveShed < 0 ||
		c.DeadlineFailed < 0 || c.RetriesExhausted < 0 ||
		c.FailedAttempts < 0 || c.Retries < 0 ||
		c.NodeOffered < 0 || c.NodeServed < 0 || c.NodeShed < 0 || c.NodeFailed < 0 ||
		c.Hedges < 0 || c.WastedHedges < 0 || c.HedgeRescues < 0 || c.InstanceCrashes < 0:
		return fmt.Errorf("faults: audit fleet: negative counters in %+v", c)
	case c.Served+c.Shed+c.Failed != c.Offered:
		return fmt.Errorf("faults: audit fleet: served %d + shed %d + failed %d != offered %d",
			c.Served, c.Shed, c.Failed, c.Offered)
	case c.ShedLowPriority+c.TierRejected+c.ValveShed != c.Shed:
		return fmt.Errorf("faults: audit fleet: shed breakdown %d+%d+%d != shed %d",
			c.ShedLowPriority, c.TierRejected, c.ValveShed, c.Shed)
	case c.DeadlineFailed+c.RetriesExhausted != c.Failed:
		return fmt.Errorf("faults: audit fleet: failure breakdown %d+%d != failed %d",
			c.DeadlineFailed, c.RetriesExhausted, c.Failed)
	case c.FailedAttempts != c.Retries+c.RetriesExhausted:
		return fmt.Errorf("faults: audit fleet: %d failed attempts but %d retries + %d exhausted (double-counted retry?)",
			c.FailedAttempts, c.Retries, c.RetriesExhausted)
	case c.NodeServed+c.NodeShed+c.NodeFailed != c.NodeOffered:
		return fmt.Errorf("faults: audit fleet: node served %d + shed %d + failed %d != node offered %d",
			c.NodeServed, c.NodeShed, c.NodeFailed, c.NodeOffered)
	case c.NodeServed != c.Served+c.WastedHedges:
		return fmt.Errorf("faults: audit fleet: node completions %d != served %d + wasted hedges %d",
			c.NodeServed, c.Served, c.WastedHedges)
	case c.NodeShed != c.ValveShed:
		return fmt.Errorf("faults: audit fleet: node sheds %d != valve sheds %d", c.NodeShed, c.ValveShed)
	case c.NodeFailed != c.InstanceCrashes:
		return fmt.Errorf("faults: audit fleet: node failures %d != instance crashes %d", c.NodeFailed, c.InstanceCrashes)
	case c.WastedHedges > c.Hedges || c.HedgeRescues > c.Hedges:
		return fmt.Errorf("faults: audit fleet: wasted %d / rescues %d exceed hedges %d",
			c.WastedHedges, c.HedgeRescues, c.Hedges)
	case c.ServedWhileDown != 0:
		return fmt.Errorf("faults: audit fleet: %d completions attributed to down or ejected nodes", c.ServedWhileDown)
	}
	return nil
}
