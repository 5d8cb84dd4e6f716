// Package applog is the crash-safe append-only line log under the
// result journal and the result cache. It owns the crash discipline
// both stores share and neither decides: one newline-terminated line per
// entry, written and fsynced before Append returns; a failed append rolled
// back to the end of the last durable line; a torn tail dropped on Open.
// What a line means (keys, digests, which entry wins) is the view's.
// DESIGN.md §12 tabulates the crash cases.
package applog

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
)

// Digest returns the hex sha256 of b: the checksum both views record
// beside a value and verify before they serve it.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// maxLine caps one line on Open. A variable so that tests can provoke a
// read error without a 256 MiB file.
var maxLine = 1 << 28

// WriteError is a failed append: the line for Key never became durable and
// the file holds the bytes it held before. Op names the failed step
// ("write", "sync" or "rollback"); Err is the cause and is in the Unwrap
// chain. A failed rollback also poisons the log: the file tail is
// untrusted, so every later append fails fast (the next Open recovers it).
type WriteError struct {
	Path, Key, Op string
	Err           error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("applog: %s of %s to %s failed: %v", e.Op, e.Key, e.Path, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// Log is one open log file. It is not safe for concurrent use: each view
// calls it under the mutex that also guards its index.
type Log struct {
	path   string
	f      *os.File // O_APPEND: truncating to off is all a rollback needs
	off    int64    // end of the last durable line
	broken bool     // a rollback failed; the file tail is untrusted
}

// Open opens the log at path (creating it if absent), hands load every
// complete line in file order — without its newline, with its byte
// offset — and leaves the log ending after the last line load accepted.
// The first line load rejects is the crash point: it and everything after
// it is truncated away, as is a final line with no newline even if it
// would parse, because a tear can fall exactly there. A read error (or a
// line over the cap) fails Open and leaves the file as it is: what cannot
// be read must not be taken for a torn tail.
func Open(path string, load func(line []byte, off int64) bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, f: f}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, maxLine) // starts at bufio's 4 KiB, grows to the longest line
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		return 0, nil, nil // unterminated: read on or, at EOF, the torn tail
	})
	for sc.Scan() && load(sc.Bytes(), l.off) {
		l.off += int64(len(sc.Bytes())) + 1
	}
	if err = sc.Err(); err != nil {
		err = fmt.Errorf("reading %s: %w", path, err)
	} else if err = f.Truncate(l.off); err != nil {
		err = fmt.Errorf("truncating torn tail of %s: %w", path, err)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Append writes line (which must end in its newline) and fsyncs it, and
// returns the offset it now durably occupies. On failure the file is
// rolled back to its pre-append bytes and the error is a *WriteError.
// fault, when non-nil, is consulted before the write and the sync step
// (ops "write" and "sync"); an error it returns is that step's disk error.
func (l *Log) Append(key string, line []byte, fault func(op, key string) error) (int64, error) {
	if l.f == nil {
		return 0, fmt.Errorf("applog: %s is closed", l.path)
	}
	if l.broken {
		return 0, &WriteError{l.path, key, "write", errors.New("log poisoned by an earlier failed rollback")}
	}
	if fault == nil {
		fault = func(string, string) error { return nil }
	}
	if err := fault("write", key); err != nil {
		// Model the fault as a torn write — part of the line reached the
		// file — so the rollback is exercised against the worst case.
		l.f.Write(line[:len(line)/2])
		return 0, l.rollback(key, "write", err)
	}
	if _, err := l.f.Write(line); err != nil {
		return 0, l.rollback(key, "write", err)
	}
	if err := fault("sync", key); err != nil {
		return 0, l.rollback(key, "sync", err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, l.rollback(key, "sync", err)
	}
	off := l.off
	l.off += int64(len(line))
	return off, nil
}

// rollback discards whatever a failed append left past the last durable
// line and wraps cause in a *WriteError; if that fails too, it poisons
// the log.
func (l *Log) rollback(key, op string, cause error) error {
	if err := l.f.Truncate(l.off); err != nil {
		l.broken = true
		cause, op = fmt.Errorf("%w (truncate after failed %s: %v)", cause, op, err), "rollback"
	}
	return &WriteError{l.path, key, op, cause}
}

// ReadAt returns the n bytes at off: a line Append or Open reported there.
func (l *Log) ReadAt(off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	_, err := l.f.ReadAt(buf, off)
	return buf, err
}

// Close releases the file; later appends and reads fail. Closing twice
// is harmless.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
