package fleet_test

import (
	"bytes"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/server"
)

// TestHarnessFiguresMatchOnAFleet: the harness's Figure 9 and Figure 12,
// and a sensitivity study whose machine only a full config describes,
// print the same bytes through a coordinator over two workers as the
// same harness running locally.
func TestHarnessFiguresMatchOnAFleet(t *testing.T) {
	pairs := []harness.Workload{
		harness.NewWorkload("pf", "bp"), harness.NewWorkload("bp", "sv"), harness.NewWorkload("sv", "ks"),
	}
	cfg := gcke.ScaledConfig(2)
	render := func(run *runner.Runner) string {
		t.Helper()
		s, err := run.Session(cfg, 8_000, 6_000)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		h := &harness.Harness{S: s, Out: &buf, Runner: run}
		if err := h.Figure9("bp", "ks", []int{2, 8, 0}); err != nil {
			t.Fatal(err)
		}
		if err := h.Compare("fig12", pairs); err != nil {
			t.Fatal(err)
		}
		if err := h.Compare("sens-mshr", pairs[1:2]); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	local := render(harness.NewRunner(0))

	w1 := startWorker(t, server.Config{})
	w2 := startWorker(t, server.Config{})
	c, err := fleet.New(fleet.Config{Workers: []string{w1.URL, w2.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Shorten(c, 25*time.Millisecond, 2)
	defer c.Close()
	run := harness.NewRunner(0)
	run.Executor = c
	if got := render(run); got != local {
		t.Fatalf("fleet tables differ from local ones:\nfleet:\n%s\nlocal:\n%s", got, local)
	}
	if st := c.StatsSnapshot(); st.Dispatched == 0 || st.Failed != 0 {
		t.Fatalf("fleet did not run the figures: %+v", st)
	}
}
