package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	gcke "repro"
)

// TestParseSchemeKeepsEveryName: every scheme name in use parses to the
// gcke.Scheme it has always named, composed names included, and names
// that are not schemes are refused.
func TestParseSchemeKeepsEveryName(t *testing.T) {
	ws := gcke.PartitionWarpedSlicer
	smk := gcke.PartitionSMK
	want := map[string]gcke.Scheme{
		"spatial":       {Partition: gcke.PartitionSpatial},
		"leftover":      {Partition: gcke.PartitionLeftover},
		"even":          {Partition: gcke.PartitionEven},
		"ws":            {Partition: ws},
		"ws-rbmi":       {Partition: ws, MemIssue: gcke.MemIssueRBMI},
		"ws-qbmi":       {Partition: ws, MemIssue: gcke.MemIssueQBMI},
		"ws-dmil":       {Partition: ws, Limiting: gcke.LimitDMIL},
		"ws-ucp":        {Partition: ws, UCP: true},
		"smk":           {Partition: smk, SMKQuota: true},
		"smk-qbmi":      {Partition: smk, MemIssue: gcke.MemIssueQBMI},
		"smk-dmil":      {Partition: smk, Limiting: gcke.LimitDMIL},
		"dynws":         {Partition: gcke.PartitionWarpedSlicerDyn},
		"ws-l2mil":      {Partition: ws, Limiting: gcke.LimitL2MIL},
		"ws-smil:2, 0":  {Partition: ws, Limiting: gcke.LimitStatic, StaticLimits: []int{2, 0}},
		"even-dmil":     {Partition: gcke.PartitionEven, Limiting: gcke.LimitDMIL},
		"tbs:6,3-dmil":  {Partition: gcke.PartitionManual, ManualTBs: []int{6, 3}, Limiting: gcke.LimitDMIL},
		"ws-smil:-1,4":  {Partition: ws, Limiting: gcke.LimitStatic, StaticLimits: []int{-1, 4}},
		"spatial-l2mil": {Partition: gcke.PartitionSpatial, Limiting: gcke.LimitL2MIL},
	}
	for name, sc := range want {
		got, err := parseScheme(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, sc) {
			t.Errorf("%s parsed to %+v, want %+v", name, got, sc)
		}
	}
	for _, bad := range []string{"", "bogus", "ws-bogus", "ws:3", "ws-dmil:3", "tbs:x,2", "ws-smil:1,,2", "tbs:-1,2"} {
		if sc, err := parseScheme(bad); err == nil {
			t.Errorf("%q parsed to %+v", bad, sc)
		}
	}
}

func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// TestGridPrintsSameBytesAtAnyPoolSize: a workloads × schemes grid is
// one runner.Run, printed in grid order whatever the pool size.
func TestGridPrintsSameBytesAtAnyPoolSize(t *testing.T) {
	args := []string{"-kernels", "bp,sv;bp,ks", "-scheme", "ws;even-dmil;smk",
		"-sms", "1", "-cycles", "6000", "-profile-cycles", "4000", "-series"}
	serial, err := runOut(t, append(args, "-parallel", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := runOut(t, append(args, "-parallel", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	if serial != pooled {
		t.Fatalf("-parallel 1 and -parallel 4 differ:\n%s\n---\n%s", serial, pooled)
	}
	if n := strings.Count(serial, "\n== "); n != 5 {
		t.Fatalf("printed %d job headers after the first, want 5:\n%s", n, serial)
	}
	if !strings.Contains(serial, "\tbp.inflight\tbp.limit\t") || !strings.Contains(serial, "rsfail[mshr=") {
		t.Fatalf("output lacks the series or the rsfail causes:\n%s", serial)
	}
}

// TestTraceNeedsOneFreshJob: -trace is refused before any simulation
// for a grid of more than one job and where a stored result could be
// served (-journal), which has no events.
func TestTraceNeedsOneFreshJob(t *testing.T) {
	base := []string{"-kernels", "bp,ks", "-sms", "1", "-cycles", "4000", "-trace", "10"}
	for _, extra := range [][]string{
		{"-scheme", "even;ws"},
		{"-kernels", "bp,ks;bp,sv", "-scheme", "even"},
		{"-scheme", "even", "-journal", t.TempDir() + "/j.jsonl"},
	} {
		out, err := runOut(t, append(append([]string(nil), base...), extra...)...)
		if err == nil || out != "" {
			t.Errorf("%v: err %v, output %q; want a refusal before any output", extra, err, out)
		}
	}
	out, err := runOut(t, append(base, "-scheme", "even", "-kind", "rsfail")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "event mix (retained window):") || !strings.Contains(out, "trace tail (10 events):") {
		t.Fatalf("traced run printed no event mix or tail:\n%s", out)
	}
}

// TestRefusesBadMachineFlags: an out-of-range -sms, -cycles,
// -profile-cycles, -parallel or -trace is refused, naming the flag,
// before anything is simulated or printed.
func TestRefusesBadMachineFlags(t *testing.T) {
	base := []string{"-kernels", "bp,sv", "-scheme", "even", "-sms", "1", "-cycles", "2000", "-profile-cycles", "2000"}
	for _, bad := range [][]string{
		{"-sms", "0"},
		{"-sms", "-2"},
		{"-cycles", "0"},
		{"-cycles", "-5"},
		{"-profile-cycles", "-1"},
		{"-parallel", "-1"},
		{"-trace", "-1"},
	} {
		out, err := runOut(t, append(append([]string(nil), base...), bad...)...)
		if err == nil || out != "" {
			t.Errorf("%v: err %v, output %q; want a refusal before any output", bad, err, out)
			continue
		}
		if !strings.Contains(err.Error(), bad[0]+"=") {
			t.Errorf("%v: error %q does not name the flag", bad, err)
		}
	}
}

// TestProfileCyclesZeroMeansCycles: -profile-cycles 0 profiles for
// -cycles, so it prints what -profile-cycles <cycles> prints.
func TestProfileCyclesZeroMeansCycles(t *testing.T) {
	base := []string{"-kernels", "bp,sv", "-scheme", "even", "-sms", "1", "-cycles", "2000"}
	zero, err := runOut(t, append(base, "-profile-cycles", "0")...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := runOut(t, append(base, "-profile-cycles", "2000")...)
	if err != nil {
		t.Fatal(err)
	}
	if zero != full {
		t.Fatalf("-profile-cycles 0 and -profile-cycles 2000 differ:\n%s\n---\n%s", zero, full)
	}
}

// TestFailedJobKeepsTheGrid: a job that fails — here a dynamic
// Warped-Slicer run too short to profile, refused before it simulates —
// prints its error in its row, the other rows print their results, and
// the run ends with the failure summary.
func TestFailedJobKeepsTheGrid(t *testing.T) {
	out, err := runOut(t, "-kernels", "bp,sv", "-scheme", "dynws;even", "-sms", "1", "-cycles", "2000", "-profile-cycles", "2000")
	if err == nil || !strings.Contains(err.Error(), "1/2 points failed") {
		t.Fatalf("err %v, want the failure summary", err)
	}
	if !strings.Contains(out, "fail: gcke: a 2000-cycle run is too short for dynamic Warped-Slicer") ||
		!strings.Contains(out, "under Even") || !strings.Contains(out, "WS ") {
		t.Fatalf("output lacks the refusal or the even row:\n%s", out)
	}
}
