package fleet

import (
	"testing"
	"time"
)

// TestHedgeThresholdDefaultFloor: at the default HedgeAfter (0) nothing
// is hedged before the first successful dispatch, and that one sample,
// whatever job it came from, arms the threshold for every later attempt.
// A positive HedgeAfter floors it; a negative one turns hedging off.
func TestHedgeThresholdDefaultFloor(t *testing.T) {
	c, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if th := c.hedgeThreshold(); th != 0 {
		t.Fatalf("no samples: threshold = %v, want 0 (hedging off)", th)
	}
	c.est.Observe(50 * time.Millisecond)
	if th := c.hedgeThreshold(); th != hedgeFactor*50*time.Millisecond {
		t.Fatalf("one sample: threshold = %v, want %v", th, hedgeFactor*50*time.Millisecond)
	}
	c.cfg.HedgeAfter = time.Second
	if th := c.hedgeThreshold(); th != time.Second {
		t.Fatalf("HedgeAfter 1s: threshold = %v, want the 1s floor", th)
	}
	c.cfg.HedgeAfter = -1
	if th := c.hedgeThreshold(); th != 0 {
		t.Fatalf("HedgeAfter < 0: threshold = %v, want 0 (hedging off)", th)
	}
}
