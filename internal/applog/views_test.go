package applog_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/applog"
	"repro/internal/journal"
	"repro/internal/resultcache"
)

// store is what the crash tests need of the result store, through each
// of its two entrances: resultcache's Put/Get and the journal view's
// Append/Lookup.
type store interface {
	put(key string, val []byte) error
	get(key string) ([]byte, bool)
	Close() error
}

type journalView struct{ *journal.Journal }

func (v journalView) put(key string, val []byte) error { return v.Append(key, json.RawMessage(val)) }
func (v journalView) get(key string) ([]byte, bool) {
	var raw json.RawMessage
	ok, err := v.Lookup(key, &raw)
	return raw, ok && err == nil
}

type cacheView struct{ *resultcache.Store }

func (v cacheView) put(key string, val []byte) error { return v.Put(key, val) }
func (v cacheView) get(key string) ([]byte, bool)    { return v.Get(key) }

var views = []struct {
	name string
	open func(path string) (store, error)
}{
	{"journal", func(path string) (store, error) {
		j, err := journal.Open(path)
		return journalView{j}, err
	}},
	{"cache", func(path string) (store, error) {
		s, err := resultcache.Open(resultcache.Options{Path: path})
		return cacheView{s}, err
	}},
}

// value draws a JSON value of n digits, the way json.Marshal would emit it.
func value(rng *rand.Rand, n int) []byte {
	v := []byte(`{"v":"`)
	for i := 0; i < n; i++ {
		v = append(v, byte('0'+rng.Intn(10)))
	}
	return append(v, `"}`...)
}

// TestCrashAtEveryOffset cuts a three-entry file at every length a crash
// could leave it, and checks both views recover exactly the entries whose
// line was complete, keep appending on a line boundary, and never lose an
// acknowledged append on the reopen after that. A cut exactly before a
// newline is the case that used to lose two.
func TestCrashAtEveryOffset(t *testing.T) {
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			dir := t.TempDir()
			keys := []string{"a", "b", "c", "d"}
			vals := make([][]byte, len(keys))
			for i := range keys {
				vals[i] = value(rng, 1+rng.Intn(40))
			}
			// full holds a, b, c; lineD is what appending d adds to a file.
			write := func(name string, entries ...int) []byte {
				path := filepath.Join(dir, name)
				s, err := v.open(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range entries {
					if err := s.put(keys[i], vals[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			full, lineD := write("full", 0, 1, 2), write("d", 3)

			for n := 0; n <= len(full); n++ {
				complete := bytes.Count(full[:n], []byte("\n")) // entries 0..complete-1 survive
				durable := full[:bytes.LastIndexByte(full[:n], '\n')+1]
				path := filepath.Join(dir, fmt.Sprintf("cut-%d", n))
				if err := os.WriteFile(path, full[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				check := func(s store, withD bool, stage string) {
					t.Helper()
					for i, k := range keys {
						got, ok := s.get(k)
						want := i < complete || i == 3 && withD
						if ok != want || ok && !bytes.Equal(got, vals[i]) {
							t.Fatalf("cut at %d of %d, %s: %s present=%v (%q), want present=%v", n, len(full), stage, k, ok, got, want)
						}
					}
				}
				s, err := v.open(path)
				if err != nil {
					t.Fatalf("cut at %d: %v", n, err)
				}
				check(s, false, "after recovery")
				if err := s.put("d", vals[3]); err != nil {
					t.Fatalf("cut at %d: append after recovery: %v", n, err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = v.open(path); err != nil {
					t.Fatalf("cut at %d: reopen: %v", n, err)
				}
				check(s, true, "after reopen")
				s.Close()
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if want := append(append([]byte(nil), durable...), lineD...); !bytes.Equal(got, want) {
					t.Fatalf("cut at %d of %d: file is\n%q, want the complete lines and d's:\n%q", n, len(full), got, want)
				}
			}
		})
	}
}

// TestReadErrorDoesNotTruncate: a line Open cannot read (here: over the
// scanner's cap, standing in for an EIO) in the middle of the file fails
// Open and leaves every byte in place, instead of passing for a torn tail
// and taking the entries behind it along.
func TestReadErrorDoesNotTruncate(t *testing.T) {
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			path := filepath.Join(t.TempDir(), "store")
			keys := []string{"short", "long", "after"}
			vals := [][]byte{value(rng, 4), value(rng, 600), value(rng, 4)}
			s, err := v.open(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if err := s.put(k, vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			restore := applog.SetMaxLine(256) // between the short lines and the long one
			_, err = v.open(path)
			restore()
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("Open over an unreadable line returned %v, want bufio.ErrTooLong", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
				t.Fatalf("failed Open changed the file: %d bytes, was %d", len(after), len(before))
			}
			if s, err = v.open(path); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i, k := range keys {
				if got, ok := s.get(k); !ok || !bytes.Equal(got, vals[i]) {
					t.Fatalf("%s lost behind the line that could not be read", k)
				}
			}
		})
	}
}
