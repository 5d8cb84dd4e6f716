package ckpt

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Types for TestEncoderRoundTripsEveryKind.
type (
	widths struct {
		i8  int8
		i16 int16
		i32 int32
		i64 int64
		i   int
		u8  uint8
		u16 uint16
		u32 uint32
		u64 uint64
		u   uint
		f32 float32
		f64 float64
		b   bool
		s   string
	}
	// padded has holes after a and after c; the encoder must read
	// fields at their offsets, not back to back.
	padded struct {
		a bool
		b int64
		c uint16
		d float32
		e uint8
	}
	named   uint8
	nothing struct{}
	slices  struct {
		nilInts   []int32
		emptyInts []int32
		nested    [][]int16
		raw       []byte
		nilRaw    []byte
		emptyRaw  []byte
		named     []named // byte fast path applies to any uint8 kind
		arr       [3]uint8
		structs   [2]padded
		none      []nothing
		strs      []string
	}
	pointers struct {
		self   *pointers
		a, b   *node // shared
		ring   *node
		none   *node
		zero   *nothing
		pp     **node
		inner  padded
		toHead *bool // aliases inner.a: another type at inner's address
	}
)

func matchCases() map[string]any {
	sh := &node{id: 7}
	a := &node{id: 1}
	b := &node{id: 2, next: a}
	a.next = b
	ptrs := &pointers{a: sh, b: sh, ring: a, zero: &nothing{}, pp: &sh, inner: padded{a: true, e: 9}}
	ptrs.self = ptrs            // pointer to the root
	ptrs.toHead = &ptrs.inner.a // *bool at the address a *padded could hold
	return map[string]any{
		"widths-min": &widths{i8: math.MinInt8, i16: math.MinInt16, i32: math.MinInt32, i64: math.MinInt64, i: math.MinInt,
			f32: -1.5, f64: math.Inf(-1), s: ""},
		"widths-max": &widths{i8: math.MaxInt8, i16: math.MaxInt16, i32: math.MaxInt32, i64: math.MaxInt64, i: math.MaxInt,
			u8: math.MaxUint8, u16: math.MaxUint16, u32: math.MaxUint32, u64: math.MaxUint64, u: math.MaxUint,
			f32: math.MaxFloat32, f64: math.SmallestNonzeroFloat64, b: true, s: "héllo\x00"},
		"padded": &padded{a: true, b: -2, c: 3, d: 0.1, e: 255},
		"slices": &slices{
			emptyInts: []int32{},
			nested:    [][]int16{{1, -1}, nil, {}, {3}},
			raw:       []byte{0, 1, 2, 255},
			emptyRaw:  []byte{},
			named:     []named{9, 8},
			arr:       [3]uint8{1, 2, 3},
			structs:   [2]padded{{a: true, c: 1}, {b: 1 << 40, e: 7}},
			none:      make([]nothing, 5),
			strs:      []string{"", "x"},
		},
		"slices-zero":   &slices{},
		"pointers":      ptrs,
		"pointers-zero": &pointers{},
		"graph":         buildGraph(),
		"scalar-root":   new(int16),
		"slice-root":    &[]*node{sh, nil, sh},
		"zero-size":     &nothing{},
	}
}

// TestEncoderRoundTripsEveryKind: for every kind the codec accepts, at
// every width, Marshal is deterministic and Unmarshal reproduces the
// value from its bytes; for every kind it rejects, Marshal fails naming
// the first one it reaches — and only when a value of the kind is
// actually reached.
func TestEncoderRoundTripsEveryKind(t *testing.T) {
	for name, v := range matchCases() {
		want, err := Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := Marshal(v); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("%s: second encoding differs (err %v)", name, err)
		}
		out := reflect.New(reflect.TypeOf(v).Elem())
		if err := Unmarshal(want, out.Interface()); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// DeepEqual follows cycles and compares nil-versus-empty slices
		// strictly; pointer identity shows in the re-encoding.
		if !reflect.DeepEqual(v, out.Interface()) {
			t.Fatalf("%s: decoded value differs:\nin:  %+v\nout: %+v", name, v, out.Interface())
		}
		again, err := Marshal(out.Interface())
		if err != nil || !bytes.Equal(again, want) {
			t.Fatalf("%s: decoded value re-encodes differently (err %v)", name, err)
		}
	}

	type (
		hasMap   struct{ m map[string]int }
		hasChan  struct{ c chan int }
		hasFunc  struct{ f func() }
		hasIface struct{ i any }
		deep     struct {
			ok  int
			bad []*hasMap
		}
		hasUintptr struct{ p uintptr }
		hasComplex struct{ c complex128 }
	)
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"map", &hasMap{}, "ckpt: cannot encode kind map (map[string]int)"},
		{"chan", &hasChan{}, "ckpt: cannot encode kind chan (chan int)"},
		{"func", &hasFunc{}, "ckpt: cannot encode kind func (func())"},
		{"interface", &hasIface{}, "ckpt: cannot encode kind interface (interface {})"},
		{"uintptr", &hasUintptr{}, "ckpt: cannot encode kind uintptr (uintptr)"},
		{"complex", &hasComplex{}, "ckpt: cannot encode kind complex128 (complex128)"},
		{"nested", &deep{bad: []*hasMap{nil, {}}}, "ckpt: cannot encode kind map (map[string]int)"},
		{"first-error", &struct {
			a hasFunc
			b hasMap
		}{}, "ckpt: cannot encode kind func (func())"},
		{"nil", nil, "ckpt: Marshal needs a non-nil pointer, got <nil>"},
		{"value-root", graph{}, "ckpt: Marshal needs a non-nil pointer, got ckpt.graph"},
		{"nil-root", (*graph)(nil), "ckpt: Marshal needs a non-nil pointer, got *ckpt.graph"},
		{"scalar", 3, "ckpt: Marshal needs a non-nil pointer, got int"},
	} {
		if _, err := Marshal(tc.v); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Marshal says %v, want %q", tc.name, err, tc.want)
		}
	}
	// A rejected kind behind a nil pointer or in an empty slice is never
	// reached, and so encodes.
	for name, v := range map[string]any{
		"unreached-nil":   &deep{bad: []*hasMap{nil}},
		"unreached-empty": &struct{ ms []map[int]int }{ms: []map[int]int{}},
	} {
		if _, err := Marshal(v); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestEncoderWireFormat pins the stream bytes by hand: a version byte;
// every integer as 8 little-endian bytes, sign- or zero-extended; a
// float as its float64 bits; a bool as one byte; a string or byte slice
// as a uvarint length and the raw bytes; any other slice as a nil tag
// (0 or 1), then a uvarint length and the elements; a pointer as 0
// (nil), 1 and its target, or 2 and the uvarint id of a pointer already
// written (the root is id 0).
func TestEncoderWireFormat(t *testing.T) {
	sh := &node{id: 7}
	for name, tc := range map[string]struct {
		v    any
		want string
	}{
		"padded": {&padded{a: true, b: -2, c: 3, d: 0.5, e: 255},
			"01" + "01" + "feffffffffffffff" + "0300000000000000" + "000000000000e03f" + "ff00000000000000"},
		"aliased": {&[]*node{sh, nil, sh},
			"01" + "0103" + "01" + "0700000000000000" + "00" + "00" + "0201"},
		"strings": {&struct {
			raw, nilRaw []byte
			s           string
			nested      [][]int16
		}{raw: []byte{0xab}, s: "hé", nested: [][]int16{{-1}, nil}},
			"01" + "0101ab" + "00" + "0368c3a9" + "0102" + "0101ffffffffffffffff" + "00"},
		"self": {func() any { p := &pointers{}; p.self = p; return p }(),
			"01" + "0200" + "000000000000" + "00" + strings.Repeat("0000000000000000", 4) + "00"},
	} {
		got, err := Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h := hex.EncodeToString(got); h != tc.want {
			t.Errorf("%s:\ngot:  %s\nwant: %s", name, h, tc.want)
		}
	}
}
