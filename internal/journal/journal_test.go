package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type point struct {
	WS    float64
	Cells []int
}

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

// entry is one journal line as the file holds it.
type entry struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
	Sha string          `json:"sha,omitempty"`
}

// raw returns the bytes j serves for key, undecoded.
func raw(j *Journal, key string) (json.RawMessage, bool) {
	var v json.RawMessage
	ok, err := j.Lookup(key, &v)
	return v, ok && err == nil
}

// fileEntries decodes the journal file at path line by line, a later
// line for a key winning as it does in Open.
func fileEntries(t *testing.T, path string) map[string]entry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ents := map[string]entry{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		ents[e.Key] = e
	}
	return ents
}

func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("fresh journal not empty: len=%d", j.Len())
	}
	want := point{WS: 1.375, Cells: []int{2, 4, 8}}
	if err := j.Append("k1", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k2", point{WS: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reopened journal: len=%d, want 2", j2.Len())
	}
	var got point
	ok, err := j2.Lookup("k1", &got)
	if err != nil || !ok {
		t.Fatalf("lookup k1: ok=%v err=%v", ok, err)
	}
	if got.WS != want.WS || len(got.Cells) != 3 || got.Cells[2] != 8 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if ok, _ := j2.Lookup("k3", &got); ok {
		t.Fatal("phantom key")
	}
	// Floats must roundtrip exactly: replayed tables are byte-identical
	// only if the decoded value is the same float64.
	if err := j2.Append("f", 0.1+0.2); err != nil {
		t.Fatal(err)
	}
	var f float64
	if ok, _ := j2.Lookup("f", &f); !ok || f != 0.1+0.2 {
		t.Fatalf("float not exact: %v", f)
	}
}

func TestAppendExtendsRatherThanTruncates(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Open(path)
	j.Append("a", 1)
	j.Close()

	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("b", 2)
	j.Close()

	j, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("len = %d after two sessions, want 2", j.Len())
	}
}

func TestLatestEntryWins(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Open(path)
	j.Append("k", 1)
	j.Append("k", 2)
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var v int
	if ok, _ := j2.Lookup("k", &v); !ok || v != 2 {
		t.Fatalf("latest entry must win, got %d", v)
	}
	if j2.Len() != 1 {
		t.Fatalf("duplicate key counted twice: %d", j2.Len())
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := Open(tmpJournal(t))
	j.Close()
	if err := j.Append("k", 1); err == nil {
		t.Fatal("append after close must fail")
	}
}

// TestLongLineReplays: Open's scanner starts at bufio's default buffer
// and must still grow past a line longer than 1 MiB, with short entries
// on either side of it.
func TestLongLineReplays(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	long := point{WS: 2.5, Cells: make([]int, 400_000)} // > 1 MiB of JSON
	for i := range long.Cells {
		long.Cells[i] = 100_000 + i
	}
	for _, e := range []struct {
		key string
		val point
	}{{"before", point{WS: 1}}, {"long", long}, {"after", point{WS: 3}}} {
		if err := j.Append(e.key, e.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() < 1<<20 {
		t.Fatalf("journal is %v bytes (%v), the long line should exceed 1 MiB", fi.Size(), err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("recovered %d entries, want 3", j2.Len())
	}
	var got point
	if ok, err := j2.Lookup("long", &got); !ok || err != nil || len(got.Cells) != len(long.Cells) || got.Cells[len(got.Cells)-1] != long.Cells[len(long.Cells)-1] {
		t.Fatalf("long entry did not replay: ok=%v err=%v cells=%d", ok, err, len(got.Cells))
	}
	if ok, _ := j2.Lookup("after", &got); !ok || got.WS != 3 {
		t.Fatal("the entry after the long line did not replay")
	}
}

// TestParentFormatFixture: journal lines as earlier commits wrote them —
// with a digest, with characters the encoder escapes, and from before
// digests existed — load into the result store, serve their bytes
// unchanged, and re-appending the same values adds the same lines.
func TestParentFormatFixture(t *testing.T) {
	lines := []string{
		`{"key":"j1-aa","val":{"WS":1.375,"Cells":[2,4,8]},"sha":"01210b0d06f9b6ba8687b4fa52e70a05be2b06ec6dad49aacbac089f0fe59e9a"}` + "\n",
		`{"key":"j1-\u003cb\u003e","val":{"note":"a\u003cb\u0026c","x":0.3},"sha":"dc00f6fbc8985b00a3edfab731ba892f7f0b3730e73bbb2c6f24c703ba40c57d"}` + "\n",
		`{"key":"j1-old","val":{"WS":0.5}}` + "\n",
	}
	keys := []string{"j1-aa", "j1-<b>", "j1-old"}
	vals := []string{`{"WS":1.375,"Cells":[2,4,8]}`, `{"note":"a\u003cb\u0026c","x":0.3}`, `{"WS":0.5}`}
	fixture := strings.Join(lines, "")
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("recovered %d, want 3", j.Len())
	}
	ents := fileEntries(t, path)
	for i, k := range keys {
		wantSha := ""
		if i < 2 {
			wantSha = Digest([]byte(vals[i]))
		}
		if raw, ok := raw(j, k); !ok || string(raw) != vals[i] || ents[k].Sha != wantSha {
			t.Fatalf("entry %s = %s (%v) sha %q, want %s sha %q", k, raw, ok, ents[k].Sha, vals[i], wantSha)
		}
	}
	// The same values again, one through each entrance.
	if err := j.Append(keys[0], point{WS: 1.375, Cells: []int{2, 4, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(keys[1], []byte(vals[1])); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("spaced", []byte(`{"WS": 1}`)); err == nil {
		t.Fatal("Put took bytes the line would not hold verbatim")
	}
	j.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fixture + lines[0] + lines[1]; string(got) != want {
		t.Fatalf("file after re-appending:\n%s\nwant:\n%s", got, want)
	}
}
