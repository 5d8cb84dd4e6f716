package gcke

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/kern"
)

// profileFile is the serialized form of a Session's isolated-IPC
// profiles. The fingerprint guards against reusing profiles across
// different machine configurations, run lengths or built-in kernels.
type profileFile struct {
	Fingerprint string                        `json:"fingerprint"`
	IsoIPC      map[string]map[string]float64 `json:"isolated_ipc"` // name -> TB count -> IPC
}

// fingerprint captures everything the isolated profiles depend on: the
// configuration, ProfileCycles and the descriptors of the built-in
// kernels (builtins, kern.Benchmarks() outside tests), whose names key
// the file's rows.
func (s *Session) fingerprint(builtins []Kernel) string {
	cfg, _ := json.Marshal(s.cfg)
	kernels, _ := json.Marshal(builtins)
	return fmt.Sprintf("v2|cycles=%d|kernels=%x|%s", s.ProfileCycles, sha256.Sum256(kernels), cfg)
}

// SaveProfiles writes the session's isolated IPCs of the built-in
// kernels to path as JSON; a custom kernel is not saved, even under a
// built-in's name. Loading the file into a future session with the same
// configuration and ProfileCycles skips the profiling runs (useful for
// the Warped-Slicer scalability curves, which need one run per TB count
// per kernel).
func (s *Session) SaveProfiles(path string) error {
	pf := profileFile{
		Fingerprint: s.fingerprint(kern.Benchmarks()),
		IsoIPC:      make(map[string]map[string]float64),
	}
	s.mu.Lock()
	for k, e := range s.profiles {
		if b, err := kern.ByName(k.d.Name); k.series || !e.settled() || err != nil || b != k.d {
			continue
		}
		row, ok := pf.IsoIPC[k.d.Name]
		if !ok {
			row = make(map[string]float64)
			pf.IsoIPC[k.d.Name] = row
		}
		row[strconv.Itoa(k.tbs)] = e.ipc
	}
	s.mu.Unlock()
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return fmt.Errorf("gcke: encoding profiles: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("gcke: writing profiles: %w", err)
	}
	return os.Rename(tmp, path)
}

// LoadProfiles merges previously saved isolated IPCs into the session,
// each under the built-in kernel of its row's name. Profiles recorded
// under a different architecture, profile length or set of built-in
// descriptors are rejected, and so is a file with a malformed row — as a
// whole: nothing of a rejected file reaches the session. A point the
// session already holds or is simulating keeps its entry.
func (s *Session) LoadProfiles(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gcke: reading profiles: %w", err)
	}
	var pf profileFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("gcke: decoding profiles: %w", err)
	}
	if pf.Fingerprint != s.fingerprint(kern.Benchmarks()) {
		return fmt.Errorf("gcke: profile fingerprint mismatch (different config, ProfileCycles or built-in kernels)")
	}
	loaded := make(map[profileKey]float64)
	for name, row := range pf.IsoIPC {
		d, err := kern.ByName(name)
		if err != nil {
			return fmt.Errorf("gcke: profiles: %w", err)
		}
		for tbsStr, ipc := range row {
			tbs, err := strconv.Atoi(tbsStr)
			if err != nil || tbs < 1 || tbs > d.MaxTBsPerSM(&s.cfg) {
				return fmt.Errorf("gcke: bad TB key %q for %s in profiles", tbsStr, name)
			}
			loaded[profileKey{d, tbs, false}] = ipc
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, ipc := range loaded {
		if _, ok := s.profiles[k]; !ok {
			e := &profileEntry{done: make(chan struct{}), ipc: ipc}
			close(e.done)
			s.profiles[k] = e
		}
	}
	return nil
}
