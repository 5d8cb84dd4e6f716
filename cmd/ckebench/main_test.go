package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestMain runs the command itself, not the tests, when the test binary
// is re-executed with CKEBENCH_MAIN set: main exits the process, so
// each case runs it in a child.
func TestMain(m *testing.M) {
	if os.Getenv("CKEBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ckebench runs the command with args in a child process, writing into
// out, and returns its combined output.
func ckebench(t *testing.T, out string, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-out", out}, args...)...)
	cmd.Env = append(os.Environ(), "CKEBENCH_MAIN=1")
	return cmd.CombinedOutput()
}

// TestRefusesUnknownExperimentsAndPairSets: an -only name that is no
// experiment, or a -pairs value other than default or all, is refused
// before anything is simulated or written; a run writes one text file
// per experiment it names and nothing else.
func TestRefusesUnknownExperimentsAndPairSets(t *testing.T) {
	small := []string{"-sms", "1", "-cycles", "2000", "-profile-cycles", "2000"}
	for _, bad := range [][]string{
		{"-only", "nosuch"},
		{"-only", "tabel2"},
		{"-only", "table2,nosuch"},
		{"-pairs", "al", "-only", "table2"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		msg, err := ckebench(t, out, append(small, bad...)...)
		if err == nil {
			t.Errorf("%v: exit 0, want a refusal:\n%s", bad, msg)
		}
		if _, serr := os.Stat(out); !os.IsNotExist(serr) {
			t.Errorf("%v: %s exists (stat: %v), want nothing written", bad, out, serr)
		}
	}

	out := filepath.Join(t.TempDir(), "out")
	if msg, err := ckebench(t, out, append(small, "-only", "table2")...); err != nil {
		t.Fatalf("-only table2: %v\n%s", err, msg)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "table2.txt" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("-only table2 wrote %v, want [table2.txt]", names)
	}
}

// TestExperimentsAreTheResults: a default run writes exactly the
// committed results/*.txt, so a row dropped or renamed in the experiment
// table shows here. Nothing is simulated.
func TestExperimentsAreTheResults(t *testing.T) {
	exps, err := experiments("default", "")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range exps {
		got = append(got, e.name+".txt")
	}
	sort.Strings(got)
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, p := range paths {
		want = append(want, filepath.Base(p))
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("experiments write %v\nresults/ holds %v", got, want)
	}
}
