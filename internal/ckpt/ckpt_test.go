package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// graph exercises every codec feature at once: unexported fields,
// nested pointers, shared pointers (aliasing), a cycle, slices of
// pointers, byte slices, arrays, floats and bools.
type node struct {
	id   int
	next *node
}

type graph struct {
	Name    string
	count   uint32
	ratio   float64
	flags   [3]bool
	raw     []byte
	nilRaw  []byte
	ints    []int64
	shared1 *node
	shared2 *node // aliases shared1
	ring    *node // points into a 2-cycle
	nested  [][]uint32
	empty   []int // non-nil empty: must round-trip as non-nil
}

func buildGraph() *graph {
	sh := &node{id: 7}
	a := &node{id: 1}
	b := &node{id: 2, next: a}
	a.next = b // cycle
	return &graph{
		Name:    "g",
		count:   42,
		ratio:   0.375,
		flags:   [3]bool{true, false, true},
		raw:     []byte{1, 2, 3},
		ints:    []int64{-1, 1 << 40},
		shared1: sh,
		shared2: sh,
		ring:    a,
		nested:  [][]uint32{{1}, nil, {2, 3}},
		empty:   []int{},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := buildGraph()
	blob, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out graph
	if err := Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", in, &out)
	}
	// Aliasing must be identity, not just equality.
	if out.shared1 != out.shared2 {
		t.Fatal("shared pointer decoded as two copies")
	}
	if out.ring.next.next != out.ring {
		t.Fatal("pointer cycle not preserved")
	}
	if out.shared1 == in.shared1 {
		t.Fatal("decoded graph shares storage with the source")
	}
	if out.empty == nil || len(out.empty) != 0 {
		t.Fatal("non-nil empty slice decoded as nil")
	}
	if out.nilRaw != nil {
		t.Fatal("nil slice decoded as non-nil")
	}
	// Determinism: same value, same bytes.
	blob2, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestCodecDecodeIntoExisting: decoding over an already-populated
// instance fully overwrites it, and decoding the same blob twice is
// idempotent.
func TestCodecDecodeIntoExisting(t *testing.T) {
	blob, err := Marshal(buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	dst := &graph{Name: "stale", count: 999, ints: []int64{5, 5, 5, 5}}
	for i := 0; i < 2; i++ {
		if err := Unmarshal(blob, dst); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(buildGraph(), dst) {
		t.Fatalf("decode over existing instance diverged: %+v", dst)
	}
}

func TestCodecRejectsUnsupportedKinds(t *testing.T) {
	type bad1 struct{ m map[string]int }
	type bad2 struct{ f func() }
	type bad3 struct{ i any }
	if _, err := Marshal(&bad1{m: map[string]int{}}); err == nil {
		t.Fatal("map field encoded")
	}
	if _, err := Marshal(&bad2{}); err == nil {
		t.Fatal("func field encoded")
	}
	if _, err := Marshal(&bad3{}); err == nil {
		t.Fatal("interface field encoded")
	}
	if _, err := Marshal(graph{}); err == nil {
		t.Fatal("non-pointer accepted")
	}
	if err := Unmarshal(nil, &graph{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestCodecGarbageNeverPanics: the decoder must turn arbitrary
// corruption into errors, not panics — the store's digest normally
// screens input, but the codec is the last line of defense.
func TestCodecGarbageNeverPanics(t *testing.T) {
	blob, err := Marshal(buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	var out graph
	// Truncations at every length.
	for n := 0; n < len(blob); n++ {
		_ = Unmarshal(blob[:n], &out)
	}
	// Single-byte corruptions at every offset.
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xff
		_ = Unmarshal(mut, &out)
	}
	// A huge declared slice length must not allocate.
	_ = Unmarshal([]byte{streamVersion, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}, &out)
}

// TestStoreSaveLatestDrop: Latest returns a key's newest checkpoint,
// and Save drops all but the newest keepPerKey of that key alone.
func TestStoreSaveLatestDrop(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "j1-abc"
	if _, _, ok := s.Latest(key); ok {
		t.Fatal("Latest on empty store reported a checkpoint")
	}
	for _, c := range []int64{100, 200, 300} {
		if err := s.Save(key, c, []byte{byte(c / 100)}); err != nil {
			t.Fatal(err)
		}
	}
	cyc, state, ok := s.Latest(key)
	if !ok || cyc != 300 || !bytes.Equal(state, []byte{3}) {
		t.Fatalf("Latest = (%d, %v, %v), want (300, [3], true)", cyc, state, ok)
	}
	// Pruned to keepPerKey files.
	ents, _ := os.ReadDir(dir)
	if len(ents) != keepPerKey {
		t.Fatalf("store holds %d files after prune, want %d", len(ents), keepPerKey)
	}
	// A second key is independent.
	if err := s.Save("j1-other", 50, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cyc, _, ok := s.Latest(key); !ok || cyc != 300 {
		t.Fatalf("another key's save moved Latest to (%d, %v)", cyc, ok)
	}
	if cyc, _, ok := s.Latest("j1-other"); !ok || cyc != 50 {
		t.Fatalf("Latest(j1-other) = (%d, %v), want (50, true)", cyc, ok)
	}
	st := s.Stats()
	if st.Saves != 4 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreCorruptFallsBack: a corrupted newest checkpoint degrades to
// the previous one; with both corrupted, to nothing.
func TestStoreCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "j1-fall"
	if err := s.Save(key, 100, []byte("older")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(key, 200, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the newest file.
	p := filepath.Join(dir, key+"@200.ckpt")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cyc, state, ok := s.Latest(key)
	if !ok || cyc != 100 || string(state) != "older" {
		t.Fatalf("Latest after corruption = (%d, %q, %v), want (100, older, true)", cyc, state, ok)
	}
	if s.Stats().Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", s.Stats().Corrupt)
	}
	// Truncate the older file too: nothing valid remains.
	p = filepath.Join(dir, key+"@100.ckpt")
	if err := os.WriteFile(p, []byte(magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Latest(key); ok {
		t.Fatal("Latest returned a checkpoint with every file corrupt")
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a/b", `a\b`, "..", "a@5"} {
		if err := s.Save(key, 1, []byte("x")); err == nil {
			t.Fatalf("Save accepted key %q", key)
		}
	}
	if err := s.Save("ok", 0, []byte("x")); err == nil {
		t.Fatal("Save accepted cycle 0")
	}
}
