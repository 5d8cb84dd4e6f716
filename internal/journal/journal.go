// Package journal is the checkpoint/resume layer of the sweep pipeline:
// an append-only JSONL file mapping deterministic job keys to completed
// results. Drivers append every finished grid point as it completes and,
// after a crash or SIGINT, reopen the journal and skip the points it
// already holds — the engine is deterministic, so a replayed result is
// byte-identical to re-simulating it.
//
// Crash safety is internal/applog's (one fsynced line per entry, a torn
// tail discarded by Open). When the same key appears twice (a point
// re-run under a newer journal generation), the later entry wins.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/applog"
)

// entry is one journal line, and one index record. Sha is the hex sha256
// of Val: a parseable line whose payload was silently damaged (bit rot, a
// lying disk) fails it on replay and degrades to a re-simulate instead of
// poisoning resume. Entries from before the digest existed have Sha == ""
// and replay unverified.
type entry struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
	Sha string          `json:"sha,omitempty"`
}

// Digest returns the hex sha256 of a journal value's raw bytes — THE
// integrity fingerprint carried end-to-end (journal line, result reply,
// audit comparison).
func Digest(raw []byte) string { return applog.Digest(raw) }

// WriteError is a failed append (applog.WriteError): the value never
// became durable and was not indexed — the append did not happen.
type WriteError = applog.WriteError

// Journal is an append-only key -> JSON value store backed by one JSONL
// file. It is safe for concurrent use by the worker pool.
type Journal struct {
	// FaultHook, when non-nil, is every append's applog fault: the
	// injection seam (internal/chaos) for the rollback path. Set it
	// before the journal is shared.
	FaultHook func(op, key string) error

	mu      sync.Mutex
	log     *applog.Log
	entries map[string]entry // values are never modified once indexed
	loaded  int              // entries recovered by Open (before any Append)
	corrupt int              // parseable lines rejected by Open for a digest mismatch
}

// Open loads the journal at path (creating it if absent) and positions
// it for appending after the last entry a crash left whole.
func Open(path string) (*Journal, error) {
	j := &Journal{entries: make(map[string]entry)}
	log, err := applog.Open(path, func(line []byte, _ int64) bool {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			// A line that does not parse marks the crash point; nothing
			// after it can be trusted (appends are strictly ordered).
			return false
		}
		if e.Sha != "" && Digest(e.Val) != e.Sha {
			// Parseable but lying: NOT the crash point — ordering is
			// intact, so skip just this entry (the point re-simulates)
			// and keep scanning.
			j.corrupt++
			return true
		}
		j.entries[e.Key] = e
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.log, j.loaded = log, len(j.entries)
	return j, nil
}

// Len returns the number of distinct keys currently journaled.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Recovered returns how many entries Open found on disk (the resume
// set), as opposed to entries appended by this process.
func (j *Journal) Recovered() int { return j.loaded }

// Corrupt returns how many parseable entries Open rejected because
// their payload failed its digest (each re-simulates).
func (j *Journal) Corrupt() int { return j.corrupt }

// Raw returns the journaled value for key exactly as it was appended.
// The bytes are shared with the index: read, never modify.
func (j *Journal) Raw(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	return e.Val, ok
}

// Lookup decodes the journaled value for key into v and reports whether
// the key was present.
func (j *Journal) Lookup(key string, v any) (bool, error) {
	raw, ok := j.Raw(key)
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("journal: decoding entry %s: %w", key, err)
	}
	return true, nil
}

// Has reports whether key is journaled without decoding it.
func (j *Journal) Has(key string) bool {
	_, ok := j.Raw(key)
	return ok
}

// Append records v under key: one JSON line, fsynced before returning so
// a later crash cannot lose the point. A failed append is atomic: the key
// is not recorded, the file is rolled back, the error is a *WriteError.
func (j *Journal) Append(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding value for %s: %w", key, err)
	}
	return j.AppendRaw(key, raw)
}

// AppendRaw is Append for a value that is already marshalled (the runner
// encodes a result once and hands the same bytes to every consumer). The
// journal keeps raw: the caller must not modify it afterwards.
func (j *Journal) AppendRaw(key string, raw json.RawMessage) error {
	e := entry{Key: key, Val: raw, Sha: Digest(raw)}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(e); err != nil {
		return fmt.Errorf("journal: encoding entry %s: %w", key, err)
	}
	if !bytes.Contains(buf.Bytes(), raw) {
		// The encoder compacted or escaped it: the line would hold other
		// bytes than Sha covers and fail its digest on replay.
		return fmt.Errorf("journal: value for %s is not JSON as json.Marshal emits it", key)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.log.Append(key, buf.Bytes(), j.FaultHook); err != nil {
		return err
	}
	j.entries[key] = e
	return nil
}

// Close releases the backing file. Lookups keep working; appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
