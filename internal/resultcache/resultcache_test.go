package resultcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func payload(i int) (string, []byte) {
	return fmt.Sprintf("j1-%04d", i),
		[]byte(fmt.Sprintf(`{"cycles":%d,"series":[%d,%d,%d]}`, i*1000, i, i+1, i+2))
}

// TestHitIsByteIdentical: the cache's whole value proposition — what
// comes back is exactly what went in, byte for byte.
func TestHitIsByteIdentical(t *testing.T) {
	s, err := Open(Options{Path: filepath.Join(t.TempDir(), "cache.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key, val := payload(1)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("cached bytes differ:\nput: %s\ngot: %s", val, got)
	}
	// The returned slice must be a copy — mutating it must not poison
	// the cache.
	got[0] = 'X'
	got2, ok := s.Get(key)
	if !ok || !bytes.Equal(got2, val) {
		t.Fatal("caller mutation reached the cached bytes")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

// TestRestartSurvival: entries persist across Close/Open, including a
// later Put overwriting an earlier one for the same key.
func TestRestartSurvival(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	k1, v1 := payload(1)
	k2, v2 := payload(2)
	if err := s.Put(k1, []byte(`{"stale":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, v2); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, v1); err != nil { // later entry wins
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	for _, tc := range []struct {
		key  string
		want []byte
	}{{k1, v1}, {k2, v2}} {
		got, ok := s2.Get(tc.key)
		if !ok || !bytes.Equal(got, tc.want) {
			t.Fatalf("after restart, %s = %q ok=%v, want %q", tc.key, got, ok, tc.want)
		}
	}
}

// TestLRUBound: the resident tier respects its entry cap; evicted
// disk-backed entries are transparently reloaded on Get, memory-only
// entries are gone.
func TestLRUBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, err := open(Options{Path: path}, 4, DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 10
	vals := make(map[string][]byte)
	for i := 0; i < n; i++ {
		k, v := payload(i)
		vals[k] = v
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if res, _ := s.Resident(); res > 4 {
		t.Fatalf("resident entries = %d, want <= 4", res)
	}
	if st := s.Stats(); st.Evictions < n-4 {
		t.Fatalf("evictions = %d, want >= %d", st.Evictions, n-4)
	}
	// Every entry — evicted or not — still serves from the disk tier.
	for k, v := range vals {
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("disk-backed entry %s lost to eviction", k)
		}
	}

	// Memory-only store: eviction is terminal.
	m, err := open(Options{}, 4, DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k, v := payload(i)
		if err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() > 4 {
		t.Fatalf("memory-only Len = %d, want <= 4", m.Len())
	}
	k0, _ := payload(0)
	if _, ok := m.Get(k0); ok {
		t.Fatal("memory-only store served an evicted entry")
	}
}

// TestMaxBytesBound: the resident tier also respects the byte cap.
func TestMaxBytesBound(t *testing.T) {
	s, err := open(Options{Path: filepath.Join(t.TempDir(), "cache.jsonl")}, DefaultMaxEntries, 200)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		k, _ := payload(i)
		if err := s.Put(k, []byte(`"`+strings.Repeat("x", 88)+`"`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, rb := s.Resident(); rb > 200 {
		t.Fatalf("resident bytes = %d, want <= 200", rb)
	}
}

// TestCorruptionFallsThrough: flipping value bytes on disk must be
// caught by the lazy checksum and demoted to a miss (the caller
// re-simulates), never served.
func TestCorruptionFallsThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	k1, v1 := payload(1)
	k2, v2 := payload(2)
	if err := s.Put(k1, v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, v2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt k1's value in place without breaking its JSON: the line
	// still parses, but no longer matches its digest.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"cycles":1000`)) {
		t.Fatal("k1's value not found on its line")
	}
	raw = bytes.Replace(raw, []byte(`"cycles":1000`), []byte(`"cycles":7000`), 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(k1); ok {
		t.Fatal("corrupt entry served")
	}
	st := s2.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	// The corrupt key is fully demoted: a re-Put repopulates it.
	if err := s2.Put(k1, v1); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(k1); !ok || !bytes.Equal(got, v1) {
		t.Fatal("re-Put after corruption did not recover the key")
	}
	// The sibling entry is untouched.
	if got, ok := s2.Get(k2); !ok || !bytes.Equal(got, v2) {
		t.Fatal("corruption of one entry leaked into another")
	}
}

// TestPutFaultDegradesGracefully: a failed write or sync surfaces as a
// *WriteError wrapping its cause, and the Put did not happen: the key is
// not indexed, the file holds the bytes it held before, and later Puts
// land on a line boundary and survive a restart.
func TestPutFaultDegradesGracefully(t *testing.T) {
	for _, op := range []string{"write", "sync"} {
		t.Run(op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.jsonl")
			s, err := Open(Options{Path: path})
			if err != nil {
				t.Fatal(err)
			}
			k1, v1 := payload(1)
			if err := s.Put(k1, v1); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			boom := errors.New("disk full")
			s.FaultHook = func(o, key string) error {
				if o == op && strings.Contains(key, "0002") {
					return boom
				}
				return nil
			}
			k2, v2 := payload(2)
			err = s.Put(k2, v2)
			var we *WriteError
			if !errors.As(err, &we) || !errors.Is(err, boom) || we.Op != op || we.Key != k2 || we.Path != path {
				t.Fatalf("Put under fault returned %v, want a %s *WriteError for %s wrapping the cause", err, op, k2)
			}
			if st := s.Stats(); st.PutErrors != 1 {
				t.Fatalf("PutErrors = %d, want 1", st.PutErrors)
			}
			if _, ok := s.Get(k2); ok || s.Len() != 1 {
				t.Fatalf("failed Put indexed: Len = %d", s.Len())
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
				t.Fatalf("file changed by failed Put:\nbefore: %q\nafter:  %q", before, after)
			}
			k3, v3 := payload(3)
			if err := s.Put(k3, v3); err != nil {
				t.Fatal(err)
			}
			s.Close()

			s2, err := Open(Options{Path: path})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Len() != 2 {
				t.Fatalf("reopened Len = %d, want 2 (faulted entry not durable)", s2.Len())
			}
			for _, tc := range []struct {
				key  string
				want []byte
			}{{k1, v1}, {k3, v3}} {
				if got, ok := s2.Get(tc.key); !ok || !bytes.Equal(got, tc.want) {
					t.Fatalf("durable entry %s lost around the faulted Put", tc.key)
				}
			}
		})
	}
}

// TestPutAfterCloseFails: a durable store that is closed refuses Puts
// instead of keeping them in memory as if they were durable; a
// memory-only store has no file to lose and keeps accepting them.
func TestPutAfterCloseFails(t *testing.T) {
	s, err := Open(Options{Path: filepath.Join(t.TempDir(), "cache.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	k, v := payload(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, v); err == nil || s.Len() != 0 {
		t.Fatalf("Put after Close = %v, Len %d; want an error and nothing indexed", err, s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	m, _ := Open(Options{})
	m.Close()
	if err := m.Put(k, v); err != nil {
		t.Fatalf("memory-only Put after Close: %v", err)
	}
}

// TestConcurrentUse hammers one store from many goroutines (meaningful
// under -race).
func TestConcurrentUse(t *testing.T) {
	s, err := open(Options{Path: filepath.Join(t.TempDir(), "cache.jsonl")}, 8, DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k, v := payload((g*13 + i) % 20)
				if i%3 == 0 {
					s.Put(k, v)
				} else if got, ok := s.Get(k); ok && !bytes.Equal(got, v) {
					t.Errorf("got wrong bytes for %s", k)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestLongLineReplays: Open's scanner starts at bufio's default buffer
// and must still grow past a line longer than 1 MiB, with short entries
// on either side of it.
func TestLongLineReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	k1, v1 := payload(1)
	k2, v2 := payload(2)
	long := []byte(`{"series":[` + strings.Repeat("123456,", 200_000) + `0]}`) // 1.4 MB
	for _, e := range []struct {
		key string
		val []byte
	}{{k1, v1}, {"long", long}, {k2, v2}} {
		if err := s.Put(e.key, e.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	if got, ok := s2.Get("long"); !ok || !bytes.Equal(got, long) {
		t.Fatalf("long entry did not replay: ok=%v, %d bytes of %d", ok, len(got), len(long))
	}
	if got, ok := s2.Get(k2); !ok || !bytes.Equal(got, v2) {
		t.Fatal("the entry after the long line did not replay")
	}
}

// TestParentFormatFixture pins the line format against files the commit
// before the one store wrote. Its sweep journal (testdata/parent-journal
// .jsonl, written by ckesim -journal) opens and serves every entry, and
// putting the same values again appends the same lines. Its result-cache
// file (testdata/parent-cache.jsonl, written by ckesim -cache-dir) holds
// base64 lines that are JSON but not store lines: Open refuses it and
// leaves every byte in place.
func TestParentFormatFixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/parent-journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := open(Options{Path: path}, 1, DefaultMaxBytes) // all but the last served by offset
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(fixture, []byte("\n"))
	lines = lines[:len(lines)-1]
	if s.Len() != len(lines) {
		t.Fatalf("opened %d entries, the fixture has %d lines", s.Len(), len(lines))
	}
	for _, l := range lines {
		var want line
		if err := json.Unmarshal(l, &want); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(want.Key)
		if !ok || !bytes.Equal(got, want.Val) || Digest(got) != want.Sha {
			t.Fatalf("Get(%s) = %d bytes, %v; want the line's value under its digest", want.Key, len(got), ok)
		}
		if err := s.Put(want.Key, got); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Corrupt != 0 || st.PutErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	s.Close()
	if got, _ := os.ReadFile(path); string(got) != string(fixture)+string(fixture) {
		t.Fatalf("re-putting the fixture's values appended other lines:\n%s", got)
	}

	cache, err := os.ReadFile("testdata/parent-cache.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "results.jsonl")
	if err := os.WriteFile(path, cache, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path}); err == nil || !strings.Contains(err.Error(), "not a result-store line") {
		t.Fatalf("Open of a parent cache file = %v, want a refusal", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, cache) {
		t.Fatalf("refused Open changed the file: %d bytes, was %d", len(got), len(cache))
	}
}

// TestForeignLineRefused: a whole line that is JSON but not a store line
// fails Open wherever it sits and leaves the file as it is, where a line
// that is not JSON at all is a crash point and is cut away with
// everything after it.
func TestForeignLineRefused(t *testing.T) {
	k1, v1 := payload(1)
	k2, v2 := payload(2)
	good := func(k string, v []byte) string {
		return `{"key":"` + k + `","val":` + string(v) + `,"sha":"` + Digest(v) + `"}` + "\n"
	}
	for _, tc := range []struct {
		name, line string
		foreign    bool
	}{
		{"object", `{"a":1}`, true},
		{"array", `[1,2]`, true},
		{"no-val", `{"key":"k"}`, true},
		{"empty-key", `{"key":"","val":1}`, true},
		{"unknown-field", `{"key":"k","sum":"00","val":"e30="}`, true},
		{"wrong-type", `{"key":7,"val":1}`, true},
		{"not-json", `{"key":"k","val":{"cyc`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := []byte(good(k1, v1) + tc.line + "\n" + good(k2, v2))
			path := filepath.Join(t.TempDir(), "store.jsonl")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Options{Path: path})
			got, _ := os.ReadFile(path)
			if tc.foreign {
				if err == nil || !bytes.Equal(got, file) {
					t.Fatalf("Open = %v, file %d bytes of %d; want a refusal and the file untouched", err, len(got), len(file))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if want := good(k1, v1); string(got) != want || s.Len() != 1 {
				t.Fatalf("after a crash point the file is %q (Len %d), want only %q", got, s.Len(), want)
			}
		})
	}
}
