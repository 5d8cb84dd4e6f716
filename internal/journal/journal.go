// Package journal is the checkpoint/resume layer of the sweep pipeline:
// an append-only JSONL file mapping deterministic job keys to completed
// results. Drivers append every finished grid point as it completes and,
// after a crash or SIGINT, reopen the journal and skip the points it
// already holds — the engine is deterministic, so a replayed result is
// byte-identical to re-simulating it.
//
// Crash safety comes from the format, not from coordination: each entry
// is one self-contained JSON line, appended and fsynced. A process
// killed mid-write leaves at most one truncated final line, which Open
// discards. When the same key appears twice (a point re-run under a
// newer journal generation), the later entry wins.
package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// entry is one journal line. Sha is the hex sha256 of Val: parseable
// lines whose payload bytes were silently damaged (bit rot, a lying
// disk, a corrupt worker journal served over /journalz) fail the digest
// on replay and degrade to a re-simulate instead of poisoning resume.
// Entries written before the digest existed have Sha == "" and replay
// unverified.
type entry struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
	Sha string          `json:"sha,omitempty"`
}

// jentry is one in-memory entry: the raw value plus its digest.
type jentry struct {
	val json.RawMessage
	sha string
}

// Digest returns the hex sha256 of a journal value's raw bytes — THE
// integrity fingerprint carried end-to-end (journal line, /journalz,
// fleet adoption, audit comparison).
func Digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// WriteError is a failed append: the value for Key never became durable
// and was not recorded in the in-memory index — from the caller's view
// the append did not happen. Op names the failed step ("write", "sync"
// or "rollback"); Err is the underlying cause and is in the Unwrap
// chain. A rollback failure additionally poisons the journal: the file
// tail is untrusted, so every later append fails fast.
type WriteError struct {
	Path string
	Key  string
	Op   string
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("journal: %s of %s to %s failed: %v", e.Op, e.Key, e.Path, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// Journal is an append-only key -> JSON value store backed by one JSONL
// file. It is safe for concurrent use by the worker pool.
type Journal struct {
	// FaultHook, when non-nil, is consulted before the write and sync
	// steps of every append (ops "write" and "sync"); a returned error
	// is treated as that step's disk error. It is the fault-injection
	// seam (internal/chaos) for exercising the rollback path — set it
	// before the journal is shared. A faulted "write" still leaves
	// partial bytes in the file, as a torn real write would, so the
	// rollback is tested against the worst case.
	FaultHook func(op, key string) error

	mu      sync.Mutex
	path    string
	f       *os.File
	off     int64 // end of the last durable entry (rollback target)
	broken  bool  // a rollback failed; the file tail is untrusted
	entries map[string]jentry
	loaded  int // entries recovered by Open (before any Append)
	corrupt int // parseable lines rejected by Open for a digest mismatch
}

// Open loads the journal at path (creating it if absent) and positions
// it for appending. A truncated or corrupt trailing line — the footprint
// of a crash mid-append — is dropped; everything before it is recovered.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, f: f, entries: make(map[string]jentry)}
	valid := int64(0) // byte offset of the end of the last parseable line
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<28) // starts at bufio's 4 KiB, grows to the longest line
	for sc.Scan() {
		line := sc.Bytes()
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			// A line that does not parse marks the crash point; nothing
			// after it can be trusted (appends are strictly ordered).
			break
		}
		valid += int64(len(line)) + 1
		if e.Sha != "" && Digest(e.Val) != e.Sha {
			// Parseable but lying: the payload bytes do not match the
			// digest recorded when the entry was written. Unlike a torn
			// tail this is NOT the crash point — ordering is intact, so
			// skip just this entry (the point re-simulates) and keep
			// scanning. The line still counts toward the durable offset:
			// appends resume after it, never over it.
			j.corrupt++
			continue
		}
		j.entries[e.Key] = jentry{val: append(json.RawMessage(nil), e.Val...), sha: e.Sha}
	}
	if err := sc.Err(); err != nil && len(j.entries) == 0 {
		f.Close()
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	// Drop the torn tail so the next append starts on a clean boundary.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.off = valid
	j.loaded = len(j.entries)
	return j, nil
}

// Path returns the backing file's path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of distinct keys currently journaled.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Recovered returns how many entries Open found on disk (the resume
// set), as opposed to entries appended by this process.
func (j *Journal) Recovered() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.loaded
}

// Corrupt returns how many parseable entries Open rejected because
// their payload failed the per-entry digest (each degrades to a
// re-simulate of that point).
func (j *Journal) Corrupt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.corrupt
}

// Lookup decodes the journaled value for key into v and reports whether
// the key was present.
func (j *Journal) Lookup(key string, v any) (bool, error) {
	j.mu.Lock()
	e, ok := j.entries[key]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(e.val, v); err != nil {
		return false, fmt.Errorf("journal: decoding entry %s: %w", key, err)
	}
	return true, nil
}

// Has reports whether key is journaled without decoding it.
func (j *Journal) Has(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.entries[key]
	return ok
}

// Each calls fn once per journaled entry, in sorted key order, with the
// entry's raw JSON value. It is the export path for fleet-level resume:
// a coordinator unions worker journals by streaming them entry by entry.
// The raw slice is fn's to keep (it is a copy). A non-nil error from fn
// stops the iteration and is returned.
func (j *Journal) Each(fn func(key string, raw json.RawMessage) error) error {
	return j.EachEntry(func(key string, raw json.RawMessage, _ string) error {
		return fn(key, raw)
	})
}

// EachEntry is Each with the entry's digest alongside the value, for
// consumers that carry integrity end-to-end (a coordinator verifying a
// worker's /journalz stream before adopting its results). Sha is "" for
// entries written before digests existed.
func (j *Journal) EachEntry(fn func(key string, raw json.RawMessage, sha string) error) error {
	j.mu.Lock()
	keys := make([]string, 0, len(j.entries))
	for k := range j.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ents := make([]jentry, len(keys))
	for i, k := range keys {
		e := j.entries[k]
		ents[i] = jentry{val: append(json.RawMessage(nil), e.val...), sha: e.sha}
	}
	j.mu.Unlock()
	for i, k := range keys {
		if err := fn(k, ents[i].val, ents[i].sha); err != nil {
			return err
		}
	}
	return nil
}

// Append records v under key: one JSON line, flushed and fsynced before
// returning so a subsequent crash cannot lose the point. A failed append
// is atomic from the caller's view: the key is not recorded, the file is
// rolled back to the end of the last durable entry, and the failure
// surfaces as a *WriteError.
func (j *Journal) Append(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding value for %s: %w", key, err)
	}
	sha := Digest(raw)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(entry{Key: key, Val: raw, Sha: sha}); err != nil {
		return fmt.Errorf("journal: encoding entry %s: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if j.broken {
		return &WriteError{Path: j.path, Key: key, Op: "write",
			Err: fmt.Errorf("journal poisoned by an earlier failed rollback")}
	}
	if j.FaultHook != nil {
		if ferr := j.FaultHook("write", key); ferr != nil {
			// Model the failure as a torn write: part of the entry
			// reached the file before the error.
			j.f.Write(buf.Bytes()[:len(buf.Bytes())/2])
			return j.rollback(key, "write", ferr)
		}
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return j.rollback(key, "write", err)
	}
	if j.FaultHook != nil {
		if ferr := j.FaultHook("sync", key); ferr != nil {
			return j.rollback(key, "sync", ferr)
		}
	}
	if err := j.f.Sync(); err != nil {
		return j.rollback(key, "sync", err)
	}
	j.entries[key] = jentry{val: raw, sha: sha}
	j.off += int64(buf.Len())
	return nil
}

// rollback discards whatever a failed append left past the last durable
// entry, restoring the file to its pre-append bytes, and wraps cause in
// a *WriteError. If the rollback itself fails the journal is poisoned:
// the on-disk tail can no longer be trusted, so later appends fail fast
// (Open's torn-tail truncation still recovers the file on restart).
func (j *Journal) rollback(key, op string, cause error) error {
	if err := j.f.Truncate(j.off); err != nil {
		j.broken = true
		return &WriteError{Path: j.path, Key: key, Op: "rollback",
			Err: fmt.Errorf("%w (truncate after failed %s: %v)", cause, op, err)}
	}
	if _, err := j.f.Seek(j.off, 0); err != nil {
		j.broken = true
		return &WriteError{Path: j.path, Key: key, Op: "rollback",
			Err: fmt.Errorf("%w (seek after failed %s: %v)", cause, op, err)}
	}
	return &WriteError{Path: j.path, Key: key, Op: op, Err: cause}
}

// Close releases the backing file. Lookups keep working; appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
