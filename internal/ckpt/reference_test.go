package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// The reflective encoder the compiled one (plan.go) replaced, kept as
// the oracle: it defines the wire format by walking reflect.Values the
// same way the decoder does.

// typedPtr keys the encoder's pointer-identity table. The type is part
// of the key so two distinct types at one address (a struct and its
// first field) never alias.
type typedPtr struct {
	t reflect.Type
	p uintptr
}

type refEncoder struct {
	buf bytes.Buffer
	ids map[typedPtr]uint64
}

// referenceMarshal is Marshal as it was before plans.
func referenceMarshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, fmt.Errorf("ckpt: Marshal needs a non-nil pointer, got %T", v)
	}
	e := &refEncoder{ids: make(map[typedPtr]uint64)}
	e.buf.WriteByte(streamVersion)
	// Register the root so an interior pointer back to it aliases
	// instead of re-encoding the graph.
	e.ids[typedPtr{rv.Type(), rv.Pointer()}] = 0
	if err := e.value(rv.Elem()); err != nil {
		return nil, err
	}
	return e.buf.Bytes(), nil
}

func (e *refEncoder) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	e.buf.Write(b[:])
}

func (e *refEncoder) uvarint(x uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], x)
	e.buf.Write(b[:n])
}

func (e *refEncoder) value(v reflect.Value) error {
	v = access(v)
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			e.buf.WriteByte(1)
		} else {
			e.buf.WriteByte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.u64(math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		e.uvarint(uint64(len(s)))
		e.buf.WriteString(s)
	case reflect.Slice:
		if v.IsNil() {
			e.buf.WriteByte(0)
			return nil
		}
		e.buf.WriteByte(1)
		n := v.Len()
		e.uvarint(uint64(n))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			e.buf.Write(v.Bytes())
			return nil
		}
		for i := 0; i < n; i++ {
			if err := e.value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := e.value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := e.value(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			e.buf.WriteByte(0)
			return nil
		}
		key := typedPtr{v.Type(), v.Pointer()}
		if id, ok := e.ids[key]; ok {
			e.buf.WriteByte(2)
			e.uvarint(id)
			return nil
		}
		e.ids[key] = uint64(len(e.ids))
		e.buf.WriteByte(1)
		return e.value(v.Elem())
	default:
		return fmt.Errorf("ckpt: cannot encode kind %s (%s)", v.Kind(), v.Type())
	}
	return nil
}

// Types for TestCompiledEncoderMatchesReference.
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

// TestCompiledEncoderMatchesReference: for every kind the codec accepts,
// at every width, the compiled encoder emits the reference encoder's
// bytes and Unmarshal reproduces the value from them; for every kind it
// rejects, both fail with the same text — and only when a value of the
// kind is actually reached.
func TestCompiledEncoderMatchesReference(t *testing.T) {
	for name, v := range matchCases() {
		want, err := referenceMarshal(v)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		// Twice: the first Marshal of a type compiles its plan, the
		// second runs presized from the first.
		for i := 0; i < 2; i++ {
			got, err := Marshal(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (encode %d): compiled encoder diverged from the reference\ngot:  %x\nwant: %x", name, i, got, want)
			}
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
	for name, v := range map[string]any{
		"map": &hasMap{}, "chan": &hasChan{}, "func": &hasFunc{}, "interface": &hasIface{},
		"uintptr": &hasUintptr{}, "complex": &hasComplex{},
		"nested": &deep{bad: []*hasMap{nil, {}}},
		"first-error": &struct {
			a hasFunc
			b hasMap
		}{},
	} {
		_, want := referenceMarshal(v)
		_, got := Marshal(v)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: compiled encoder says %v, reference says %v", name, got, want)
		}
	}
	// A rejected kind behind a nil pointer or in an empty slice is never
	// reached, and so encodes.
	for name, v := range map[string]any{
		"unreached-nil":   &deep{bad: []*hasMap{nil}},
		"unreached-empty": &struct{ ms []map[int]int }{ms: []map[int]int{}},
	} {
		want, err := referenceMarshal(v)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got, err := Marshal(v); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: compiled encoder: err %v, bytes equal %v", name, err, bytes.Equal(got, want))
		}
	}
	for _, v := range []any{nil, graph{}, (*graph)(nil), 3} {
		_, want := referenceMarshal(v)
		_, got := Marshal(v)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%T: compiled encoder says %v, reference says %v", v, got, want)
		}
	}
}
