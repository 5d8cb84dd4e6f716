package gcke

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

type goroutineKey struct{}

// shortSession is for tests of the profile plane, which simulate every
// profile point of a pair under -race: what they check is who runs
// which point, not what a long run computes.
func shortSession() *Session {
	s := NewSession(ScaledConfig(2), 6_000)
	s.ProfileCycles = 4_000
	return s
}

// TestProfileWorkSharing pins the claim-then-wait profile plane: jobs of
// one pair running on G goroutines split the pair's profile points
// between them, every point is simulated exactly once, and every result
// is byte-identical to a single-goroutine session's.
func TestProfileWorkSharing(t *testing.T) {
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	schemes := []Scheme{
		{Partition: PartitionWarpedSlicer},
		{Partition: PartitionWarpedSlicer, MemIssue: MemIssueQBMI},
		{Partition: PartitionWarpedSlicer, Limiting: LimitDMIL},
	}
	serial := shortSession()
	want := make([][]byte, len(schemes))
	for i, sc := range schemes {
		res, err := serial.RunWorkload(wl, sc)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	cfg := serial.Config()
	points := 0
	for i := range wl {
		points += wl[i].MaxTBsPerSM(&cfg)
	}
	if wl[0].MaxTBsPerSM(&cfg) < 3 {
		t.Fatalf("%s has no two curve points below full occupancy to share", wl[0].Name)
	}

	for _, G := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("G=%d", G), func(t *testing.T) {
			s := shortSession()
			var mu sync.Mutex
			runs := map[string]int{}      // "kernel|tbs" -> simulations
			curveOf := map[string][]int{} // kernel -> goroutines that ran its curve points
			shared := make(chan struct{}) // closed once two goroutines ran wl[0]'s curve
			s.onProfile = func(ctx context.Context, kernel string, tbs int) {
				g := ctx.Value(goroutineKey{}).(int)
				mu.Lock()
				runs[fmt.Sprintf("%s|%d", kernel, tbs)]++
				first := false
				if kernel == wl[0].Name && tbs < wl[0].MaxTBsPerSM(&cfg) {
					prev := curveOf[kernel]
					curveOf[kernel] = append(prev, g)
					first = len(prev) == 0
					if len(prev) > 0 && prev[0] != g {
						select {
						case <-shared:
						default:
							close(shared)
						}
					}
				}
				mu.Unlock()
				// The goroutine that takes the first point of wl[0]'s curve
				// holds it until another goroutine takes a later one. Without
				// work sharing the others queue behind this point and the
				// test hangs instead of passing by luck.
				if first {
					<-shared
				}
			}

			var wg sync.WaitGroup
			for g := 0; g < G; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.WithValue(context.Background(), goroutineKey{}, g)
					sc := schemes[g%len(schemes)]
					res, err := s.RunWorkloadCtx(ctx, wl, sc)
					if err != nil {
						t.Errorf("goroutine %d, %s: %v", g, sc.Name(), err)
						return
					}
					got, err := json.Marshal(res)
					if err != nil {
						t.Errorf("goroutine %d, %s: %v", g, sc.Name(), err)
						return
					}
					if !bytes.Equal(got, want[g%len(schemes)]) {
						t.Errorf("goroutine %d, %s: result differs from the single-goroutine session's", g, sc.Name())
					}
				}()
			}
			wg.Wait()

			if len(runs) != points {
				t.Errorf("%d distinct profile points simulated, want %d", len(runs), points)
			}
			for i := range wl {
				for n := 1; n <= wl[i].MaxTBsPerSM(&cfg); n++ {
					key := fmt.Sprintf("%s|%d", wl[i].Name, n)
					if runs[key] != 1 {
						t.Errorf("point %s simulated %d times, want 1", key, runs[key])
					}
				}
			}
		})
	}
}
