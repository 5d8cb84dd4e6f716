package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// magic heads every checkpoint file; bumping it invalidates all
// on-disk checkpoints (they degrade to a from-zero re-simulate).
const magic = "ckecp1\n"

// keepPerKey is how many checkpoints survive per job: the newest plus
// one fallback, so a checkpoint torn by a mid-write crash (or corrupted
// by a flaky disk) degrades to the previous one, not to cycle 0.
const keepPerKey = 2

// Store persists engine checkpoints, one file per (job key, cycle),
// named <key>@<cycle>.ckpt. Writes are atomic (temp + fsync + rename)
// because hedged dispatch can put two worker processes on the same job
// concurrently; reads verify a sha256 digest and fall back to the next
// older checkpoint on mismatch. Safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	saves   int64
	corrupt int64
}

// StoreStats counts store activity for /statz-style gauges.
type StoreStats struct {
	Saves   int64 `json:"saves"`
	Corrupt int64 `json:"corrupt"`
}

// OpenStore opens (creating if needed) a checkpoint directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Saves: s.saves, Corrupt: s.corrupt}
}

// checkKey rejects keys that cannot be file names. Job keys are
// "j1-<hex>", so this only ever fires on programmer error.
func checkKey(key string) error {
	if key == "" || strings.ContainsAny(key, "/\\@") || key == "." || key == ".." {
		return fmt.Errorf("ckpt: unusable key %q", key)
	}
	return nil
}

func (s *Store) path(key string, cycle int64) string {
	return filepath.Join(s.dir, key+"@"+strconv.FormatInt(cycle, 10)+".ckpt")
}

// Save atomically persists state as key's checkpoint at cycle and
// prunes that key's older checkpoints down to keepPerKey.
func (s *Store) Save(key string, cycle int64, state []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if cycle <= 0 {
		return fmt.Errorf("ckpt: save %s at non-positive cycle %d", key, cycle)
	}
	sum := sha256.Sum256(state)

	f, err := os.CreateTemp(s.dir, "tmp-*.ckpt")
	if err != nil {
		return fmt.Errorf("ckpt: save %s: %w", key, err)
	}
	tmp := f.Name()
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(state)))
	_, err = f.WriteString(magic)
	if err == nil {
		_, err = f.Write(hdr[:])
	}
	if err == nil {
		_, err = f.Write(sum[:])
	}
	if err == nil {
		_, err = f.Write(state)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(key, cycle))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: save %s@%d: %w", key, cycle, err)
	}
	// Best-effort directory sync so the rename itself survives a crash.
	if d, derr := os.Open(s.dir); derr == nil {
		d.Sync()
		d.Close()
	}

	s.mu.Lock()
	s.saves++
	s.mu.Unlock()
	s.prune(key)
	return nil
}

// cycles lists key's on-disk checkpoint cycles, newest first.
func (s *Store) cycles(key string) []int64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	prefix := key + "@"
	var out []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		c, err := strconv.ParseInt(strings.TrimSuffix(name[len(prefix):], ".ckpt"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

func (s *Store) prune(key string) {
	cs := s.cycles(key)
	for _, c := range cs[min(len(cs), keepPerKey):] {
		os.Remove(s.path(key, c))
	}
}

// Latest returns key's newest checkpoint that passes digest
// verification, or ok=false when none does. Corrupt or torn files are
// skipped (counted in Stats().Corrupt), so a bad newest checkpoint
// degrades to the previous one and only then to a from-zero run.
func (s *Store) Latest(key string) (cycle int64, state []byte, ok bool) {
	if checkKey(key) != nil {
		return 0, nil, false
	}
	for _, c := range s.cycles(key) {
		b, err := s.read(key, c)
		if err != nil {
			s.mu.Lock()
			s.corrupt++
			s.mu.Unlock()
			continue
		}
		return c, b, true
	}
	return 0, nil, false
}

func (s *Store) read(key string, cycle int64) ([]byte, error) {
	b, err := os.ReadFile(s.path(key, cycle))
	if err != nil {
		return nil, err
	}
	if len(b) < len(magic)+8+sha256.Size || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: %s@%d: bad header", key, cycle)
	}
	b = b[len(magic):]
	n := binary.BigEndian.Uint64(b[:8])
	b = b[8:]
	var want [sha256.Size]byte
	copy(want[:], b[:sha256.Size])
	payload := b[sha256.Size:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("ckpt: %s@%d: truncated payload (%d of %d bytes)", key, cycle, len(payload), n)
	}
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("ckpt: %s@%d: digest mismatch", key, cycle)
	}
	return payload, nil
}
