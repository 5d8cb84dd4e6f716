package applog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOffsetsAddressLines: the offset Append returns and the offset Open
// hands to load both address the line for ReadAt, across a reopen.
func TestOffsetsAddressLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, func([]byte, int64) (bool, error) { t.Fatal("load called on an empty file"); return false, nil })
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{"first\n", "the second line\n", "3\n"}
	offs := make([]int64, len(lines))
	for i, s := range lines {
		if offs[i], err = l.Append("k", []byte(s), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("k", []byte("late\n"), nil); err == nil {
		t.Fatal("append after Close must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	i := 0
	l, err = Open(path, func(line []byte, off int64) (bool, error) {
		if string(line)+"\n" != lines[i] || off != offs[i] {
			t.Fatalf("line %d loaded as %q at %d, want %q at %d", i, line, off, lines[i], offs[i])
		}
		i++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if i != len(lines) {
		t.Fatalf("loaded %d lines, want %d", i, len(lines))
	}
	for i, s := range lines {
		got, err := l.ReadAt(offs[i], int64(len(s)))
		if err != nil || string(got) != s {
			t.Fatalf("ReadAt(%d) = %q, %v; want %q", offs[i], got, err, s)
		}
	}
}

// TestAppendAfterFailedRollback: when even the rollback fails the log
// poisons itself rather than appending after an untrusted tail.
func TestAppendAfterFailedRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Close the fd out from under the log so the write and the rollback's
	// truncate both fail: a dead disk, which no public API can produce.
	l.f.Close()
	_, err = l.Append("bad", []byte("x\n"), nil)
	var we *WriteError
	if !errors.As(err, &we) || we.Op != "rollback" || we.Key != "bad" || we.Path != path {
		t.Fatalf("err = %v, want a rollback *WriteError for bad at %s", err, path)
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("the failed write's cause is not in the chain: %v", err)
	}
	_, err = l.Append("next", []byte("y\n"), nil)
	if !errors.As(err, &we) || we.Op != "write" {
		t.Fatalf("append to a poisoned log returned %T (%v), want a write *WriteError", err, err)
	}
}
