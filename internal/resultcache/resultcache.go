// Package resultcache is the content-addressed result store between
// the sweep/serve drivers and the simulation engine. Keys are the
// deterministic job fingerprints (runner.Job.Key: a sha256 over the
// full configuration), so a hit is by construction the byte-identical
// result of re-simulating — the engine is deterministic and the key
// covers everything that feeds it.
//
// The store is two-tiered. A bounded in-memory LRU holds the hot
// result bytes (DefaultMaxEntries / DefaultMaxBytes caps); an optional
// append-only JSONL file (internal/applog owns its crash safety) makes
// every entry durable across restarts. Eviction only drops the resident bytes — the
// disk tier keeps the entry, and a later Get re-reads and re-verifies
// it. Each persisted line carries a sha256 of the value, verified lazily
// on first Get; a mismatch demotes the entry to a miss, so the caller
// re-simulates instead of being served a corrupt result. A Put failure
// is counted and surfaced but never fatal: the cache degrades to
// pass-through.
package resultcache

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/applog"
)

// line is one persisted entry.
type line struct {
	Key string `json:"key"`
	Sum string `json:"sum"` // sha256 of Val, hex
	Val []byte `json:"val"` // raw result bytes (base64 in the file)
}

// entry is the in-memory index record for one key.
type entry struct {
	key      string
	sum      string
	val      []byte // nil once evicted from the resident tier
	off, n   int64  // line location in the file (n == 0: memory-only)
	verified bool   // checksum confirmed since the bytes last left disk
	elem     *list.Element
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	PutErrors int64 `json:"put_errors"`
	Corrupt   int64 `json:"corrupt"`   // checksum mismatches demoted to misses
	Evictions int64 `json:"evictions"` // resident-tier evictions
}

// Options configures Open.
type Options struct {
	// Path is the backing JSONL file; empty runs the store memory-only
	// (eviction then discards entries entirely).
	Path string
}

const (
	// DefaultMaxEntries and DefaultMaxBytes bound the resident tier's
	// entry count and value bytes.
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 256 << 20
)

// WriteError is a failed persistence step of a Put (applog.WriteError):
// the entry is not durable but stays cached in memory for this process.
type WriteError = applog.WriteError

// Store is a content-addressed result cache, safe for concurrent use.
type Store struct {
	// FaultHook, when non-nil, is every Put's applog fault: the
	// injection seam (internal/chaos). Set it before the store is shared.
	FaultHook func(op, key string) error

	maxEntries int
	maxBytes   int64

	mu       sync.Mutex
	log      *applog.Log // nil: memory-only, or closed
	index    map[string]*entry
	lru      *list.List // of *entry with val != nil; front = most recent
	resBytes int64
	stats    Stats
}

// Open loads (or creates) the store. With a non-empty Path, existing
// entries are indexed and their bytes made resident newest-first up to
// the caps; a later line for the same key wins.
func Open(opts Options) (*Store, error) {
	return open(opts, DefaultMaxEntries, DefaultMaxBytes)
}

// open is Open with the resident tier's caps given (tests shrink them).
func open(opts Options, maxEntries int, maxBytes int64) (*Store, error) {
	s := &Store{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		index:      make(map[string]*entry),
		lru:        list.New(),
	}
	if opts.Path == "" {
		return s, nil
	}
	log, err := applog.Open(opts.Path, func(raw []byte, off int64) bool {
		var l line
		if err := json.Unmarshal(raw, &l); err != nil || l.Key == "" || l.Sum == "" {
			return false // torn tail: nothing after it can be trusted
		}
		s.set(&entry{key: l.Key, sum: l.Sum, val: l.Val, off: off, n: int64(len(raw)) + 1})
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	s.log = log
	return s, nil
}

// Get returns a copy of the cached bytes for key. An entry that cannot
// be re-read or fails its checksum counts as corruption: it is dropped
// and the call reports a miss, so the caller re-simulates.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.index[key]
	if e == nil {
		s.stats.Misses++
		return nil, false
	}
	if e.val == nil {
		// Evicted from the resident tier; re-read the line from disk.
		if e.val = s.reload(e); e.val != nil {
			e.verified = false
			s.admit(e)
		}
	}
	if e.val == nil || !e.verified && applog.Digest(e.val) != e.sum {
		s.drop(e)
		delete(s.index, key)
		s.stats.Corrupt++
		s.stats.Misses++
		return nil, false
	}
	e.verified = true
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.stats.Hits++
	return append([]byte(nil), e.val...), true
}

// Put records val under key: durable first (one fsynced line), then
// resident. A persistence failure is counted, leaves the entry
// memory-only, and surfaces as an error the caller may log and otherwise
// ignore — the result is still valid and cached for this process.
func (s *Store) Put(key string, val []byte) error {
	e := &entry{key: key, sum: applog.Digest(val), val: append([]byte(nil), val...), verified: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.persist(e)
	if err != nil {
		s.stats.PutErrors++
	}
	s.set(e)
	return err
}

// persist appends e's line to the log, if there is one, and stamps e with
// its location.
func (s *Store) persist(e *entry) error {
	if s.log == nil {
		return nil
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(line{Key: e.key, Sum: e.sum, Val: e.val})
	if err == nil {
		e.off, err = s.log.Append(e.key, buf.Bytes(), s.FaultHook)
	}
	if err == nil {
		e.n = int64(buf.Len())
	}
	return err
}

// set makes e the index record for its key (replacing an earlier one)
// and admits its bytes to the resident tier.
func (s *Store) set(e *entry) {
	if old := s.index[e.key]; old != nil {
		s.drop(old)
	}
	s.index[e.key] = e
	s.admit(e)
}

// reload re-reads e's line from the file and returns its value bytes,
// nil if there is no line or it no longer reads as e's.
func (s *Store) reload(e *entry) []byte {
	if s.log == nil || e.n == 0 {
		return nil
	}
	raw, err := s.log.ReadAt(e.off, e.n)
	var l line
	if err != nil || json.Unmarshal(raw, &l) != nil || l.Key != e.key {
		return nil
	}
	return l.Val
}

// admit places e in the resident tier and evicts past the caps. An
// evicted disk-backed entry keeps its index record (bytes reloadable);
// a memory-only one is discarded outright.
func (s *Store) admit(e *entry) {
	e.elem = s.lru.PushFront(e)
	s.resBytes += int64(len(e.val))
	for s.lru.Len() > s.maxEntries || s.resBytes > s.maxBytes {
		tail := s.lru.Back()
		if tail == e.elem && s.lru.Len() == 1 {
			break // never evict the entry being admitted if it is alone
		}
		v := tail.Value.(*entry)
		s.drop(v)
		if v.n == 0 {
			delete(s.index, v.key)
		}
		s.stats.Evictions++
	}
}

// drop removes e from the resident tier (index untouched).
func (s *Store) drop(e *entry) {
	if e.elem != nil {
		s.lru.Remove(e.elem)
		s.resBytes -= int64(len(e.val))
		e.elem = nil
	}
	e.val = nil
}

// Len returns the number of distinct keys indexed (resident or not).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Resident returns the resident tier's entry count and value bytes.
func (s *Store) Resident() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len(), s.resBytes
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases the backing file. Resident lookups keep working;
// reloads of evicted entries fail and later Puts stay memory-only.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
