package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestParseGrid(t *testing.T) {
	lims, err := parseGrid("2,4, 8 ,0")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 8, 0}
	if len(lims) != len(want) {
		t.Fatalf("lims = %v", lims)
	}
	for i := range want {
		if lims[i] != want[i] {
			t.Fatalf("lims = %v, want %v", lims, want)
		}
	}
	for _, bad := range []string{"", "2,,4", "2,x", "-1", "2,4.5", "2;4"} {
		if _, err := parseGrid(bad); err == nil {
			t.Errorf("parseGrid(%q) accepted", bad)
		}
	}
}

// FuzzParseGrid asserts the sweep-grid parser's safety properties over
// arbitrary input: it never panics, never silently drops or invents
// entries, and never returns a negative limit (a malformed grid must be
// rejected, not quietly turned into limit 0 = unlimited).
func FuzzParseGrid(f *testing.F) {
	for _, seed := range []string{
		"2,4,8,16,32,64,0", "0", " 7 ", "1,-1", "a,b", "", ",", "2,,4",
		"9999999999999999999999", "+3", "0x10", "3_0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		lims, err := parseGrid(spec)
		if err != nil {
			if lims != nil {
				t.Fatalf("parseGrid(%q) returned both values and error", spec)
			}
			return
		}
		fields := strings.Split(spec, ",")
		if len(lims) != len(fields) {
			t.Fatalf("parseGrid(%q) = %v: %d entries for %d fields", spec, lims, len(lims), len(fields))
		}
		for i, v := range lims {
			if v < 0 {
				t.Fatalf("parseGrid(%q) accepted negative limit %d", spec, v)
			}
			// Each accepted entry must re-parse to the same value (the
			// parser may strip surrounding spaces and nothing else).
			got, err := strconv.Atoi(strings.TrimSpace(fields[i]))
			if err != nil || got != v {
				t.Fatalf("parseGrid(%q) entry %d: %q became %d", spec, i, fields[i], v)
			}
		}
	})
}
