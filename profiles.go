package gcke

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/config"
)

// profileFile is the serialized form of a Session's isolated-execution
// profile cache. The architecture fingerprint guards against reusing
// profiles across different machine configurations or run lengths.
type profileFile struct {
	Fingerprint string                        `json:"fingerprint"`
	IsoIPC      map[string]map[string]float64 `json:"isolated_ipc"` // name -> TB count -> IPC
}

// fingerprint captures everything the isolated profiles depend on.
func (s *Session) fingerprint() string {
	cfg, _ := json.Marshal(s.cfg)
	return fmt.Sprintf("v1|cycles=%d|%s", s.ProfileCycles, cfg)
}

// SaveProfiles writes the session's isolated-IPC cache to path as JSON.
// Loading it into a future session with the same configuration and
// ProfileCycles skips the profiling runs (useful for the Warped-Slicer
// scalability curves, which need one run per TB count per kernel).
func (s *Session) SaveProfiles(path string) error {
	pf := profileFile{
		Fingerprint: s.fingerprint(),
		IsoIPC:      make(map[string]map[string]float64),
	}
	s.mu.Lock()
	for name, m := range s.isoIPC {
		row := make(map[string]float64, len(m))
		for tbs, ipc := range m {
			row[fmt.Sprint(tbs)] = ipc
		}
		pf.IsoIPC[name] = row
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

// LoadProfiles merges previously saved isolated-IPC profiles into the
// session. Profiles recorded under a different architecture or profile
// length are rejected, and so is a file with a malformed row — as a
// whole: nothing of a rejected file reaches the session.
func (s *Session) LoadProfiles(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gcke: reading profiles: %w", err)
	}
	var pf profileFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("gcke: decoding profiles: %w", err)
	}
	if pf.Fingerprint != s.fingerprint() {
		return fmt.Errorf("gcke: profile fingerprint mismatch (different config or ProfileCycles)")
	}
	loaded := make(map[string]map[int]float64, len(pf.IsoIPC))
	for name, row := range pf.IsoIPC {
		m := make(map[int]float64, len(row))
		for tbsStr, ipc := range row {
			tbs, err := strconv.Atoi(tbsStr)
			if err != nil || tbs < 1 {
				return fmt.Errorf("gcke: bad TB key %q in profiles", tbsStr)
			}
			m[tbs] = ipc
		}
		loaded[name] = m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, row := range loaded {
		m, ok := s.isoIPC[name]
		if !ok {
			s.isoIPC[name] = row
			continue
		}
		for tbs, ipc := range row {
			m[tbs] = ipc
		}
	}
	return nil
}

// Interface checks: the config must stay JSON-serializable for the
// fingerprint.
var _ = func() bool {
	_, err := json.Marshal(config.Default())
	return err == nil
}()
