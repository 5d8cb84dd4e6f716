package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The encoder is compiled per type: the first Marshal of a type walks
// its reflect.Type once into a plan — field offsets, element sizes and
// one closure per kind — and every Marshal after that only chases
// unsafe.Pointers through the plan and appends to a byte slice, with no
// reflect.Value in the loop. The wire format is the one the decoder (and
// the reference encoder in reference_test.go) defines; this file is the
// only place the codec reads memory through unsafe.

// plan encodes values of one type.
type plan struct {
	// enc appends the encoding of the value p points to, which must be
	// of the plan's type. It is set after the plans of the types it
	// refers to exist, so a recursive type's plan can refer to itself.
	enc func(e *encoder, p unsafe.Pointer)
	// lastLen is the size of the last encode rooted at this type; the
	// next one presizes its buffer from it.
	lastLen atomic.Int64
}

// ptrKey keys the encoder's pointer-identity table. The pointer type's
// plan (one per type) is part of the key so two distinct types at one
// address (a struct and its first field) never alias.
type ptrKey struct {
	pl *plan
	p  unsafe.Pointer
}

type encoder struct {
	buf []byte
	ids map[ptrKey]uint64
	// err is the first unencodable value met; the walk runs on (it is
	// memory-safe regardless) and Marshal reports it.
	err error
}

// plans caches finished plans by reflect.Type. A plan is published only
// together with every plan it refers to, so a reader never sees a nil
// enc.
var (
	plans   sync.Map
	compile sync.Mutex
)

func planOf(t reflect.Type) *plan {
	if pl, ok := plans.Load(t); ok {
		return pl.(*plan)
	}
	compile.Lock()
	defer compile.Unlock()
	pending := make(map[reflect.Type]*plan)
	root := build(t, pending)
	for t, pl := range pending {
		plans.Store(t, pl)
	}
	return root
}

// Marshal deep-encodes the value v points to. v must be a non-nil
// pointer. Unexported fields are included (the snapshot graph is built
// from them), pointer aliasing and cycles are preserved through an
// identity table, and kinds the engine graph never contains — maps,
// chans, funcs, interfaces — are rejected rather than silently skipped.
func Marshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, fmt.Errorf("ckpt: Marshal needs a non-nil pointer, got %T", v)
	}
	root := planOf(rv.Type())
	elem := planOf(rv.Type().Elem())
	p := rv.UnsafePointer()
	// A little headroom over the last encode of this type: a snapshot a
	// few thousand cycles later is about as large, rarely identical.
	n := root.lastLen.Load()
	e := &encoder{
		buf: make([]byte, 0, n+n/8+64),
		ids: make(map[ptrKey]uint64),
	}
	e.buf = append(e.buf, streamVersion)
	// Register the root so an interior pointer back to it aliases
	// instead of re-encoding the graph.
	e.ids[ptrKey{root, p}] = 0
	elem.enc(e, p)
	if e.err != nil {
		return nil, e.err
	}
	root.lastLen.Store(int64(len(e.buf)))
	return e.buf, nil
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) u64(x uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }

func (e *encoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

// sliceHeader is the memory layout of any slice value.
type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

// build returns t's plan, compiling it (and, recursively, the plans of
// the types it contains) into pending if no finished one exists.
func build(t reflect.Type, pending map[reflect.Type]*plan) *plan {
	if pl, ok := plans.Load(t); ok {
		return pl.(*plan)
	}
	if pl, ok := pending[t]; ok {
		return pl
	}
	pl := &plan{}
	pending[t] = pl
	switch t.Kind() {
	case reflect.Bool:
		pl.enc = func(e *encoder, p unsafe.Pointer) {
			if *(*bool)(p) {
				e.byte(1)
			} else {
				e.byte(0)
			}
		}
	// Every integer travels as 8 bytes, sign- or zero-extended.
	case reflect.Int:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*int)(p))) }
	case reflect.Int8:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*int8)(p))) }
	case reflect.Int16:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*int16)(p))) }
	case reflect.Int32:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*int32)(p))) }
	case reflect.Int64:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*int64)(p))) }
	case reflect.Uint:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*uint)(p))) }
	case reflect.Uint8:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*uint8)(p))) }
	case reflect.Uint16:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*uint16)(p))) }
	case reflect.Uint32:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(uint64(*(*uint32)(p))) }
	case reflect.Uint64:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(*(*uint64)(p)) }
	case reflect.Float32:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(math.Float64bits(float64(*(*float32)(p)))) }
	case reflect.Float64:
		pl.enc = func(e *encoder, p unsafe.Pointer) { e.u64(math.Float64bits(*(*float64)(p))) }
	case reflect.String:
		pl.enc = func(e *encoder, p unsafe.Pointer) {
			s := *(*string)(p)
			e.uvarint(uint64(len(s)))
			e.buf = append(e.buf, s...)
		}
	case reflect.Slice:
		elem := build(t.Elem(), pending)
		size := t.Elem().Size()
		raw := t.Elem().Kind() == reflect.Uint8
		pl.enc = func(e *encoder, p unsafe.Pointer) {
			h := (*sliceHeader)(p)
			if h.data == nil {
				e.byte(0)
				return
			}
			e.byte(1)
			e.uvarint(uint64(h.len))
			if raw {
				e.buf = append(e.buf, unsafe.Slice((*byte)(h.data), h.len)...)
				return
			}
			for i := 0; i < h.len; i++ {
				elem.enc(e, unsafe.Add(h.data, uintptr(i)*size))
			}
		}
	case reflect.Array:
		elem := build(t.Elem(), pending)
		size := t.Elem().Size()
		n := t.Len()
		pl.enc = func(e *encoder, p unsafe.Pointer) {
			for i := 0; i < n; i++ {
				elem.enc(e, unsafe.Add(p, uintptr(i)*size))
			}
		}
	case reflect.Struct:
		type field struct {
			off uintptr
			pl  *plan
		}
		fields := make([]field, t.NumField())
		for i := range fields {
			f := t.Field(i)
			fields[i] = field{f.Offset, build(f.Type, pending)}
		}
		pl.enc = func(e *encoder, p unsafe.Pointer) {
			for _, f := range fields {
				f.pl.enc(e, unsafe.Add(p, f.off))
			}
		}
	case reflect.Pointer:
		elem := build(t.Elem(), pending)
		pl.enc = func(e *encoder, p unsafe.Pointer) {
			q := *(*unsafe.Pointer)(p)
			if q == nil {
				e.byte(0)
				return
			}
			key := ptrKey{pl, q}
			if id, ok := e.ids[key]; ok {
				e.byte(2)
				e.uvarint(id)
				return
			}
			e.ids[key] = uint64(len(e.ids))
			e.byte(1)
			elem.enc(e, q)
		}
	default:
		// Rejected when a value of the kind is met, not when its type is:
		// a nil pointer to (or an empty slice of) such a type encodes.
		err := fmt.Errorf("ckpt: cannot encode kind %s (%s)", t.Kind(), t)
		pl.enc = func(e *encoder, p unsafe.Pointer) {
			if e.err == nil {
				e.err = err
			}
		}
	}
	return pl
}
