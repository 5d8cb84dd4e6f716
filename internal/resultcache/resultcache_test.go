package resultcache

import (
	"bytes"
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
		if err := s.Put(k, bytes.Repeat([]byte(`x`), 90)); err != nil {
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

	// Corrupt k1's value in place (base64 region of the first line).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte(`"val":"`))
	if i < 0 {
		t.Fatal("no val field found")
	}
	i += len(`"val":"`)
	if raw[i] == 'A' {
		raw[i] = 'B'
	} else {
		raw[i] = 'A'
	}
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

// TestPutFaultDegradesGracefully: a failed persistence step surfaces as
// a *WriteError, rolls the file back, and leaves the result cached in
// memory — the pipeline keeps working without the disk tier for that
// entry.
func TestPutFaultDegradesGracefully(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	k1, v1 := payload(1)
	if err := s.Put(k1, v1); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	s.FaultHook = func(op, key string) error {
		if op == "write" && strings.Contains(key, "0002") {
			return boom
		}
		return nil
	}
	k2, v2 := payload(2)
	err = s.Put(k2, v2)
	var we *WriteError
	if !errors.As(err, &we) || !errors.Is(err, boom) {
		t.Fatalf("Put under fault returned %v, want *WriteError wrapping the cause", err)
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Fatalf("PutErrors = %d, want 1", st.PutErrors)
	}
	// Still served from memory despite the failed append.
	if got, ok := s.Get(k2); !ok || !bytes.Equal(got, v2) {
		t.Fatal("entry lost after failed persistence")
	}
	// The torn write was rolled back: later appends land cleanly.
	s.FaultHook = nil
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
	if _, ok := s2.Get(k2); ok {
		t.Fatal("faulted entry survived restart")
	}
	for _, tc := range []struct {
		key  string
		want []byte
	}{{k1, v1}, {k3, v3}} {
		if got, ok := s2.Get(tc.key); !ok || !bytes.Equal(got, tc.want) {
			t.Fatalf("durable entry %s lost around the faulted append", tc.key)
		}
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
	long := []byte(`{"series":[` + strings.Repeat("123456,", 200_000) + `0]}`) // 1.4 MB, more in base64
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

// TestParentFormatFixture: lines exactly as the commit before the shared
// append log wrote them load, serve their bytes, and putting the same
// values again adds the same lines.
func TestParentFormatFixture(t *testing.T) {
	lines := []string{
		`{"key":"j1-aa","sum":"01210b0d06f9b6ba8687b4fa52e70a05be2b06ec6dad49aacbac089f0fe59e9a","val":"eyJXUyI6MS4zNzUsIkNlbGxzIjpbMiw0LDhdfQ=="}` + "\n",
		`{"key":"j1-bb","sum":"66e70588535f5d534786204ba2ff5d2d96c154ff1cc55e61049f23092f18060a","val":"eyJjeWNsZXMiOjIwMDAsInNlcmllcyI6WzIsMyw0XX0="}` + "\n",
	}
	keys := []string{"j1-aa", "j1-bb"}
	vals := []string{`{"WS":1.375,"Cells":[2,4,8]}`, `{"cycles":2000,"series":[2,3,4]}`}
	fixture := strings.Join(lines, "")
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := open(Options{Path: path}, 1, DefaultMaxBytes) // j1-aa is served by offset
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if got, ok := s.Get(k); !ok || string(got) != vals[i] {
			t.Fatalf("Get(%s) = %q, %v; want %s", k, got, ok, vals[i])
		}
	}
	for i, k := range keys {
		if err := s.Put(k, []byte(vals[i])); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Corrupt != 0 || st.PutErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	s.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fixture + fixture; string(got) != want {
		t.Fatalf("file after re-putting:\n%s\nwant:\n%s", got, want)
	}
}
