// Package ckpt persists mid-job engine checkpoints: a deep codec for the
// engine's snapshot object graph plus an atomic on-disk store with
// sha256 integrity and fall-back-on-corruption reads.
//
// The codec is deliberately schema-free: the concrete Go type handed to
// Marshal and Unmarshal IS the schema, so both sides of a round trip
// must run the same build. That is exactly the checkpoint contract —
// a checkpoint is only ever consumed by the binary (version) that wrote
// it, and the store's digest rejects everything else.
//
// The two directions are built differently on purpose. Marshal runs once
// per checkpoint of every job, on trusted in-memory values, so it is
// compiled per type (plan.go). Unmarshal runs once per RESUMED job, on
// bytes from disk and from other workers, so it stays a reflective walk
// guarded by recover: that it never panics is worth more than its speed.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

const streamVersion = 1

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

// access lifts the read-only flag reflect puts on unexported fields.
// Everything the codec traverses hangs off an addressable root (Marshal
// and Unmarshal both take pointers), so NewAt is always available.
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
