package journal

import (
	"bytes"
	"os"
	"testing"
)

// TestDigestMismatchSkipsEntryAndContinues: a parseable line whose
// payload fails its digest is never served (the lookup misses, so the
// point re-simulates), but — unlike the torn tail — it is not a crash
// point: entries after the damaged one survive and the durable offset
// covers the whole file.
func TestDigestMismatchSkipsEntryAndContinues(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := j.Append(k, point{WS: float64(len(k))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip payload bytes inside entry "b" without breaking JSON: the
	// line still parses, but its Val no longer matches its Sha. The WS
	// value 1.000000 has same-length replacements.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if !bytes.Contains(lines[1], []byte(`"b"`)) {
		t.Fatalf("unexpected layout: %s", lines[1])
	}
	lines[1] = bytes.Replace(lines[1], []byte(`"WS":1`), []byte(`"WS":7`), 1)
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got point
	if ok, _ := j2.Lookup("b", &got); ok {
		t.Fatal("digest-mismatched entry served")
	}
	if c := j2.Stats().Corrupt; c != 1 {
		t.Fatalf("Corrupt = %d, want 1", c)
	}
	// The entries before AND after the damaged line both survive.
	okA, _ := j2.Lookup("a", &got)
	okC, _ := j2.Lookup("c", &got)
	if !okA || !okC || j2.Len() != 2 {
		t.Fatalf("digest skip did not continue scanning: a=%v c=%v len=%d", okA, okC, j2.Len())
	}

	// The damaged line's bytes still count toward the durable offset:
	// a re-append of "b" lands after it, and a reopen sees all four
	// lines with the fresh "b" winning.
	if err := j2.Append("b", point{WS: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(mustRead(t, path), []byte("\n")); n != 4 {
		t.Fatalf("file holds %d lines after the repair, want 4", n)
	}
	j3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if ok, err := j3.Lookup("b", &got); !ok || err != nil || got.WS != 2 || j3.Len() != 3 {
		t.Fatalf("repaired entry: ok=%v err=%v ws=%v len=%d", ok, err, got.WS, j3.Len())
	}
	if c := j3.Stats().Corrupt; c != 0 {
		t.Fatalf("the damaged line was served after the repair: Corrupt = %d", c)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEachEntryCarriesDigest: each appended entry's line carries a
// digest that matches a recomputation over the bytes the journal serves
// — including after a reopen.
func TestEachEntryCarriesDigest(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k", point{WS: 1.5, Cells: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	check := func(j *Journal) {
		t.Helper()
		e, onDisk := fileEntries(t, path)["k"]
		raw, served := raw(j, "k")
		if !onDisk || !served || e.Sha == "" || Digest(raw) != e.Sha || string(e.Val) != string(raw) {
			t.Fatalf("line %+v, served %s: want a digest over the served bytes", e, raw)
		}
	}
	check(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check(j2)
}

// TestLegacyLinesWithoutShaReplay: lines written before the digest
// existed (no "sha" field) replay unverified rather than being dropped.
func TestLegacyLinesWithoutShaReplay(t *testing.T) {
	path := tmpJournal(t)
	legacy := `{"key":"old","val":{"WS":3.25,"Cells":null}}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var got point
	if ok, _ := j.Lookup("old", &got); !ok || got.WS != 3.25 || j.Stats().Corrupt != 0 {
		t.Fatalf("legacy lookup: ok=%v ws=%v corrupt=%d", ok, got.WS, j.Stats().Corrupt)
	}
	// New appends on the same journal do carry digests; the legacy line
	// stays as it was.
	if err := j.Append("new", point{WS: 1}); err != nil {
		t.Fatal(err)
	}
	ents := fileEntries(t, path)
	if ents["old"].Sha != "" {
		t.Fatalf("legacy entry grew a digest: %q", ents["old"].Sha)
	}
	if ents["new"].Sha == "" {
		t.Fatal("new append has no sha field on disk")
	}
}
