// Package resultcache is the content-addressed result store between
// the sweep/serve drivers and the simulation engine. Keys are the
// deterministic job fingerprints (runner.Job.Key: a sha256 over the
// full configuration), so a hit is by construction the byte-identical
// result of re-simulating — the engine is deterministic and the key
// covers everything that feeds it.
//
// The store is two-tiered. A bounded in-memory LRU holds the hot
// result bytes (MaxEntries / MaxBytes caps); an optional append-only
// JSONL file makes every entry durable across restarts. Eviction only
// drops the resident bytes — the disk tier keeps the entry, and a
// later Get re-reads and re-verifies it. Each persisted line carries a
// sha256 of the value; the checksum is verified lazily on first Get,
// and a mismatch (bit rot, a torn write that still parses) demotes the
// entry to a miss so the caller falls through to re-simulation instead
// of serving a corrupt result.
//
// Writes follow the journal package's crash discipline: one fsynced
// line per entry, failed appends rolled back to the last durable
// boundary, a torn tail discarded on Open. A Put failure is counted
// and surfaced but never fatal to the caller's pipeline — the cache
// degrades to pass-through.
package resultcache

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
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
	// MaxEntries bounds the resident tier's entry count; 0 = default.
	MaxEntries int
	// MaxBytes bounds the resident tier's value bytes; 0 = default.
	MaxBytes int64
}

const (
	// DefaultMaxEntries and DefaultMaxBytes bound the resident tier
	// when Options leaves them zero.
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 256 << 20
)

// Store is a content-addressed result cache, safe for concurrent use.
type Store struct {
	// FaultHook, when non-nil, is consulted before the write and sync
	// steps of every Put (ops "write" and "sync"); a returned error is
	// treated as that step's disk error. Fault-injection seam
	// (internal/chaos) — set it before the store is shared.
	FaultHook func(op, key string) error

	maxEntries int
	maxBytes   int64

	mu       sync.Mutex
	path     string
	f        *os.File
	off      int64 // end of the last durable line (rollback target)
	broken   bool  // a rollback failed; the file tail is untrusted
	index    map[string]*entry
	lru      *list.List // of *entry with val != nil; front = most recent
	resBytes int64
	stats    Stats
}

// Open loads (or creates) the store. With a non-empty Path, existing
// entries are indexed and their bytes made resident newest-first up to
// the caps; a truncated trailing line is discarded as in the journal.
func Open(opts Options) (*Store, error) {
	s := &Store{
		maxEntries: opts.MaxEntries,
		maxBytes:   opts.MaxBytes,
		path:       opts.Path,
		index:      make(map[string]*entry),
		lru:        list.New(),
	}
	if s.maxEntries <= 0 {
		s.maxEntries = DefaultMaxEntries
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if opts.Path == "" {
		return s, nil
	}
	f, err := os.OpenFile(opts.Path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	s.f = f
	valid := int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<28) // starts at bufio's 4 KiB, grows to the longest line
	for sc.Scan() {
		raw := sc.Bytes()
		var l line
		if err := json.Unmarshal(raw, &l); err != nil || l.Key == "" || l.Sum == "" {
			break // torn tail: nothing after it can be trusted
		}
		if old := s.index[l.Key]; old != nil {
			s.drop(old) // later entry wins
			delete(s.index, l.Key)
		}
		e := &entry{
			key: l.Key,
			sum: l.Sum,
			val: append([]byte(nil), l.Val...),
			off: valid,
			n:   int64(len(raw)) + 1,
		}
		s.index[l.Key] = e
		s.admit(e)
		valid += int64(len(raw)) + 1
	}
	if err := sc.Err(); err != nil && len(s.index) == 0 {
		f.Close()
		return nil, fmt.Errorf("resultcache: reading %s: %w", opts.Path, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("resultcache: truncating torn tail of %s: %w", opts.Path, err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	s.off = valid
	return s, nil
}

// Get returns a copy of the cached bytes for key. A checksum mismatch
// on a disk-backed entry counts as corruption: the entry is dropped and
// the call reports a miss, so the caller re-simulates.
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
		val, err := s.reload(e)
		if err != nil {
			s.discard(e)
			s.stats.Corrupt++
			s.stats.Misses++
			return nil, false
		}
		e.val = val
		e.verified = false
		s.admit(e)
	}
	if !e.verified {
		sum := sha256.Sum256(e.val)
		if hex.EncodeToString(sum[:]) != e.sum {
			s.discard(e)
			s.stats.Corrupt++
			s.stats.Misses++
			return nil, false
		}
		e.verified = true
	}
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.stats.Hits++
	return append([]byte(nil), e.val...), true
}

// Put records val under key: durable first (one fsynced JSONL line,
// rolled back on failure), then resident. A persistence failure is
// counted, leaves the entry memory-only, and surfaces as an error the
// caller may log and otherwise ignore — the result itself is still
// valid and still cached for this process's lifetime.
func (s *Store) Put(key string, val []byte) error {
	sum := sha256.Sum256(val)
	e := &entry{
		key:      key,
		sum:      hex.EncodeToString(sum[:]),
		val:      append([]byte(nil), val...),
		verified: true,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.index[key]; old != nil {
		s.drop(old)
	}
	var werr error
	if s.f != nil {
		werr = s.append(e)
		if werr != nil {
			s.stats.PutErrors++
		}
	}
	s.index[key] = e
	s.admit(e)
	return werr
}

// append persists e's line and stamps its file location; on failure the
// file is rolled back to the last durable boundary (journal discipline).
func (s *Store) append(e *entry) error {
	if s.broken {
		return &WriteError{Path: s.path, Key: e.key, Op: "write",
			Err: fmt.Errorf("store poisoned by an earlier failed rollback")}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(line{Key: e.key, Sum: e.sum, Val: e.val}); err != nil {
		return fmt.Errorf("resultcache: encoding entry %s: %w", e.key, err)
	}
	if s.FaultHook != nil {
		if ferr := s.FaultHook("write", e.key); ferr != nil {
			// Model a torn write: part of the line reached the file.
			s.f.Write(buf.Bytes()[:buf.Len()/2])
			return s.rollback(e.key, "write", ferr)
		}
	}
	if _, err := s.f.Write(buf.Bytes()); err != nil {
		return s.rollback(e.key, "write", err)
	}
	if s.FaultHook != nil {
		if ferr := s.FaultHook("sync", e.key); ferr != nil {
			return s.rollback(e.key, "sync", ferr)
		}
	}
	if err := s.f.Sync(); err != nil {
		return s.rollback(e.key, "sync", err)
	}
	e.off, e.n = s.off, int64(buf.Len())
	s.off += int64(buf.Len())
	return nil
}

func (s *Store) rollback(key, op string, cause error) error {
	if err := s.f.Truncate(s.off); err != nil {
		s.broken = true
		return &WriteError{Path: s.path, Key: key, Op: "rollback",
			Err: fmt.Errorf("%w (truncate after failed %s: %v)", cause, op, err)}
	}
	if _, err := s.f.Seek(s.off, 0); err != nil {
		s.broken = true
		return &WriteError{Path: s.path, Key: key, Op: "rollback",
			Err: fmt.Errorf("%w (seek after failed %s: %v)", cause, op, err)}
	}
	return &WriteError{Path: s.path, Key: key, Op: op, Err: cause}
}

// reload re-reads e's line from the file and returns its value bytes.
func (s *Store) reload(e *entry) ([]byte, error) {
	if s.f == nil || e.n == 0 {
		return nil, fmt.Errorf("resultcache: entry %s has no backing line", e.key)
	}
	raw := make([]byte, e.n)
	if _, err := s.f.ReadAt(raw, e.off); err != nil {
		return nil, fmt.Errorf("resultcache: rereading entry %s: %w", e.key, err)
	}
	var l line
	if err := json.Unmarshal(bytes.TrimRight(raw, "\n"), &l); err != nil || l.Key != e.key {
		return nil, fmt.Errorf("resultcache: entry %s unparseable on reread", e.key)
	}
	return l.Val, nil
}

// admit places e in the resident tier and evicts past the caps. An
// evicted disk-backed entry keeps its index record (bytes reloadable);
// a memory-only one is discarded outright.
func (s *Store) admit(e *entry) {
	e.elem = s.lru.PushFront(e)
	s.resBytes += int64(len(e.val))
	for s.lru.Len() > s.maxEntries || s.resBytes > s.maxBytes {
		tail := s.lru.Back()
		if tail == nil || tail == e.elem && s.lru.Len() == 1 {
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

// discard removes e entirely (corrupt entry).
func (s *Store) discard(e *entry) {
	s.drop(e)
	delete(s.index, e.key)
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
// reloads of evicted entries and Puts to disk fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// WriteError is a failed persistence step of a Put: the entry never
// became durable (it remains cached in memory for this process). Op
// names the failed step ("write", "sync" or "rollback"); Err is the
// cause and is in the Unwrap chain. A rollback failure poisons the
// store's disk tier: the file tail is untrusted, so later Puts fail
// fast while Gets keep serving.
type WriteError struct {
	Path string
	Key  string
	Op   string
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("resultcache: %s of %s to %s failed: %v", e.Op, e.Key, e.Path, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }
