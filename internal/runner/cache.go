package runner

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Cache is the two-tier content-addressed result store. The in-memory tier
// is always on: within one process, any two experiments that submit the same
// cell share one simulation. The on-disk tier (one gob file per key) is
// optional and makes repeated runs of the same figure start warm across
// processes.
//
// There is no explicit invalidation: keys embed SchemaVersion and every
// config field (see Cell.Key), so entries written under a different schema
// or configuration are simply never looked up again. Undecodable disk
// entries — a torn write, a foreign file — are treated as misses and
// removed.
type Cache struct {
	mu  sync.Mutex
	mem map[uint64]Measurement
	dir string // empty: memory tier only
}

// NewCache builds a cache; dir == "" selects the memory tier only. The
// directory is created if missing.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: cache dir: %w", err)
		}
	}
	return &Cache{mem: map[uint64]Measurement{}, dir: dir}, nil
}

// path is the disk location of key's entry.
func (c *Cache) path(key uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%016x.gob", key))
}

// Get looks key up in both tiers, promoting disk hits into memory.
func (c *Cache) Get(key uint64) (Measurement, bool) {
	c.mu.Lock()
	m, ok := c.mem[key]
	c.mu.Unlock()
	if ok || c.dir == "" {
		return m, ok
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Measurement{}, false
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		os.Remove(c.path(key)) // corrupt entry: drop it and re-measure
		return Measurement{}, false
	}
	c.mu.Lock()
	c.mem[key] = m
	c.mu.Unlock()
	return m, true
}

// encode serializes a Measurement for the disk tier; tests swap it to make
// it fail, which no Measurement the simulator produces does today.
var encode = func(w io.Writer, m Measurement) error { return gob.NewEncoder(w).Encode(m) }

// Put stores key in memory and, when configured, on disk. With a disk tier,
// a Measurement gob cannot encode is an error and is stored nowhere. Disk
// writes go through a temp file and rename, so a crash can leave at worst a
// stray .tmp, never a torn entry; I/O failures silently degrade to
// memory-only caching (the result itself is already safe in the memory tier).
func (c *Cache) Put(key uint64, m Measurement) error {
	var buf bytes.Buffer
	if c.dir != "" {
		if err := encode(&buf, m); err != nil {
			return fmt.Errorf("runner: cache encode: %w", err)
		}
	}
	c.mu.Lock()
	c.mem[key] = m
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	if tmp, err := os.CreateTemp(c.dir, "put-*.tmp"); err == nil {
		_, werr := tmp.Write(buf.Bytes())
		if cerr := tmp.Close(); werr != nil || cerr != nil || os.Rename(tmp.Name(), c.path(key)) != nil {
			os.Remove(tmp.Name())
		}
	}
	return nil
}
