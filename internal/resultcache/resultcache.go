// Package resultcache is the one result store between the sweep/serve
// drivers and the simulation engine. Keys are the deterministic job
// fingerprints (runner.Job.Key: a sha256 over the full configuration),
// so a hit is by construction the byte-identical result of
// re-simulating — the engine is deterministic and the key covers
// everything that feeds it.
//
// With a path the store is durable, and its file is the sweep journal:
// each Put is one fsynced JSONL line {"key","val","sha"} with the value
// verbatim (internal/applog owns the crash discipline), and a restarted
// process serves every line the file holds; a later line for a key wins.
// A bounded in-memory LRU holds the hot value bytes; eviction only drops
// them, and a later Get re-reads the line. A line's sha256 is verified
// on first Get; a mismatch demotes the entry to a miss, so the caller
// re-simulates. A failed Put is atomic — the file is rolled back and the
// key not indexed — and returns a *WriteError. Without a path the store
// is memory-only: eviction discards entries, and Put cannot fail.
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/applog"
)

// line is one persisted entry. Val is the value's JSON as json.Marshal
// emits it, byte for byte; Sha is its hex sha256, absent on lines
// written before digests existed, which serve unverified.
type line struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
	Sha string          `json:"sha,omitempty"`
}

// entry is the in-memory index record for one key.
type entry struct {
	key      string
	sum      string // "" on a line from before digests: nothing to verify
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

// Digest returns the hex sha256 of a stored value: the checksum on its
// line, and the integrity fingerprint carried end to end (result reply,
// audit comparison).
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WriteError is a failed durable Put (applog.WriteError): the value never
// became durable and was not indexed — the Put did not happen.
type WriteError = applog.WriteError

// Store is a content-addressed result store, safe for concurrent use.
type Store struct {
	// FaultHook, when non-nil, is every Put's applog fault: the
	// injection seam (internal/chaos). Set it before the store is shared.
	FaultHook func(op, key string) error

	maxEntries int
	maxBytes   int64

	mu       sync.Mutex
	log      *applog.Log // nil: memory-only
	index    map[string]*entry
	lru      *list.List // of *entry with val != nil; front = most recent
	resBytes int64
	stats    Stats
}

// Open loads (or creates) the store. With a non-empty Path, existing
// entries are indexed and their bytes made resident newest-first up to
// the caps. A whole line that is JSON but not a store line (a file in
// another format) fails Open and leaves the file as it is.
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
	log, err := applog.Open(opts.Path, func(raw []byte, off int64) (bool, error) {
		if !json.Valid(raw) {
			return false, nil // torn: nothing after it can be trusted
		}
		var l line
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil || l.Key == "" || l.Val == nil {
			return false, fmt.Errorf("line at byte %d is not a result-store line", off)
		}
		s.set(&entry{key: l.Key, sum: l.Sha, val: l.Val, off: off, n: int64(len(raw)) + 1})
		return true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	s.log = log
	return s, nil
}

// Get returns a copy of the stored bytes for key. An entry that cannot
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
	if e.val == nil || !e.verified && e.sum != "" && Digest(e.val) != e.sum {
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

// Put records val, which must be JSON as json.Marshal emits it, under
// key: durable first (one fsynced line), then resident. A failed append
// leaves the store as it was and returns a *WriteError.
func (s *Store) Put(key string, val []byte) error {
	e := &entry{key: key, sum: Digest(val), val: append([]byte(nil), val...), verified: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.persist(e); err != nil {
		s.stats.PutErrors++
		return err
	}
	s.set(e)
	return nil
}

// persist appends e's line to the log, if there is one, and stamps e with
// its location.
func (s *Store) persist(e *entry) error {
	if s.log == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(line{e.key, e.val, e.sum}); err != nil {
		return fmt.Errorf("resultcache: encoding %s: %w", e.key, err)
	}
	if !bytes.Contains(buf.Bytes(), e.val) {
		// The encoder compacted or escaped it: the line would hold other
		// bytes than the digest covers.
		return fmt.Errorf("resultcache: value for %s is not JSON as json.Marshal emits it", e.key)
	}
	off, err := s.log.Append(e.key, buf.Bytes(), s.FaultHook)
	e.off, e.n = off, int64(buf.Len())
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
// reloads of evicted entries fail, and so do later Puts to a durable
// store. Closing twice is harmless.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
