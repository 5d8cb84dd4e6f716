// Package ckpt persists engine checkpoints: a deep codec for the
// engine's snapshot object graph plus an atomic on-disk store with
// sha256 integrity and fall-back-on-corruption reads.
//
// Every job runs from cycle 0, so no job reads a checkpoint: bench/ (the
// serve-mixed store and the ckpt.* drive) is the package's only non-test
// caller, and the package goes when bench/ stops naming it.
//
// The codec is deliberately schema-free: the concrete Go type handed to
// Marshal and Unmarshal IS the schema, so both sides of a round trip
// must run the same build. That is exactly the checkpoint contract —
// a checkpoint is only ever consumed by the binary (version) that wrote
// it, and the store's digest rejects everything else.
//
// Both directions are reflective walks over the same kinds in the same
// order. Unmarshal reads bytes from disk, so it is guarded by recover:
// corrupt input yields an error, never a panic.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

const streamVersion = 1

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
	e := &encoder{buf: []byte{streamVersion}, ids: make(map[typedPtr]uint64)}
	// Register the root so an interior pointer back to it aliases
	// instead of re-encoding the graph.
	e.ids[typedPtr{rv.Type(), rv.Pointer()}] = 0
	if err := e.value(rv.Elem()); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// typedPtr keys the encoder's pointer-identity table. The type is part
// of the key so two distinct types at one address (a struct and its
// first field) never alias.
type typedPtr struct {
	t reflect.Type
	p uintptr
}

type encoder struct {
	buf []byte
	ids map[typedPtr]uint64
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) u64(x uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }

func (e *encoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

// value appends v's encoding. Every integer travels as 8 bytes, sign-
// or zero-extended, and every float as a float64.
func (e *encoder) value(v reflect.Value) error {
	v = access(v)
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			e.byte(1)
		} else {
			e.byte(0)
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
		e.buf = append(e.buf, s...)
	case reflect.Slice:
		if v.IsNil() {
			e.byte(0)
			return nil
		}
		e.byte(1)
		n := v.Len()
		e.uvarint(uint64(n))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			e.buf = append(e.buf, v.Bytes()...)
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
			e.byte(0)
			return nil
		}
		key := typedPtr{v.Type(), v.Pointer()}
		if id, ok := e.ids[key]; ok {
			e.byte(2)
			e.uvarint(id)
			return nil
		}
		e.ids[key] = uint64(len(e.ids))
		e.byte(1)
		return e.value(v.Elem())
	default:
		return fmt.Errorf("ckpt: cannot encode kind %s (%s)", v.Kind(), v.Type())
	}
	return nil
}

// Unmarshal decodes data (produced by Marshal on the same Go type) into
// the value v points to. Arbitrary or corrupt input never panics: any
// structural mismatch surfaces as an error.
func Unmarshal(data []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ckpt: corrupt stream: %v", r)
		}
	}()
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("ckpt: Unmarshal needs a non-nil pointer, got %T", v)
	}
	if len(data) == 0 {
		return fmt.Errorf("ckpt: empty stream")
	}
	if data[0] != streamVersion {
		return fmt.Errorf("ckpt: unknown stream version %d", data[0])
	}
	d := &decoder{data: data, off: 1, ptrs: []reflect.Value{rv}}
	if err := d.value(rv.Elem()); err != nil {
		return err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("ckpt: %d trailing bytes after decode", len(d.data)-d.off)
	}
	return nil
}

// access lifts the read-only flag reflect puts on unexported fields: the
// one place the codec touches unsafe. Everything it traverses hangs off
// an addressable root (Marshal and Unmarshal both take pointers), so
// NewAt is always available.
func access(v reflect.Value) reflect.Value {
	if !v.CanInterface() && v.CanAddr() {
		return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	return v
}

type decoder struct {
	data []byte
	off  int
	// ptrs[id] is the id-th pointer materialized, mirroring the
	// encoder's identity table (id 0 is the root).
	ptrs []reflect.Value
}

// take panics (recovered in Unmarshal) when the stream runs short.
func (d *decoder) take(n int) []byte {
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) byte() byte { return d.take(1)[0] }

func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ckpt: truncated varint at offset %d", d.off)
	}
	d.off += n
	return x, nil
}

func (d *decoder) value(v reflect.Value) error {
	v = access(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(d.byte() != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(d.u64()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(d.u64())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Float64frombits(d.u64()))
	case reflect.String:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.data)-d.off) {
			return fmt.Errorf("ckpt: string length %d exceeds remaining stream", n)
		}
		v.SetString(string(d.take(int(n))))
	case reflect.Slice:
		if d.byte() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		// Every element costs at least one stream byte for the kinds we
		// accept, so a length beyond the remaining bytes is corruption —
		// reject it before allocating.
		if n > uint64(len(d.data)-d.off) {
			return fmt.Errorf("ckpt: slice length %d exceeds remaining stream", n)
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			// make, not append to nil: an empty non-nil slice must not
			// come back nil.
			b := make([]byte, n)
			copy(b, d.take(int(n)))
			v.SetBytes(b)
			return nil
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		for i := 0; i < int(n); i++ {
			if err := d.value(s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := d.value(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		switch tag := d.byte(); tag {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		case 1:
			p := reflect.New(v.Type().Elem())
			v.Set(p)
			// Register before filling so cycles resolve to p.
			d.ptrs = append(d.ptrs, p)
			return d.value(p.Elem())
		case 2:
			id, err := d.uvarint()
			if err != nil {
				return err
			}
			if id >= uint64(len(d.ptrs)) {
				return fmt.Errorf("ckpt: pointer ref %d out of range (%d known)", id, len(d.ptrs))
			}
			rp := d.ptrs[id]
			if rp.Type() != v.Type() {
				return fmt.Errorf("ckpt: pointer ref %d is %s, want %s", id, rp.Type(), v.Type())
			}
			v.Set(rp)
		default:
			return fmt.Errorf("ckpt: bad pointer tag %d", tag)
		}
	default:
		return fmt.Errorf("ckpt: cannot decode kind %s (%s)", v.Kind(), v.Type())
	}
	return nil
}
