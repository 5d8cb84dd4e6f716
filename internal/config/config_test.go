package config

import "testing"

// TestDefaultMatchesTable1 pins the baseline to the paper's Table 1.
func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"NumSMs", c.NumSMs, 16},
		{"WarpSize", c.WarpSize, 32},
		{"Schedulers", c.SM.Schedulers, 4},
		{"MaxThreads", c.SM.MaxThreads, 3072},
		{"MaxWarps", c.SM.MaxWarps, 96},
		{"MaxTBs", c.SM.MaxTBs, 16},
		{"L1D MSHRs", c.L1D.MSHRs, 128},
		{"L1D size", c.L1D.SizeBytes, 24 * 1024},
		{"L1D line", c.L1D.LineBytes, 128},
		{"L1D ways", c.L1D.Ways, 6},
		{"SMEM", c.SM.SmemBytes, 96 * 1024},
		{"L2 partition size", c.L2.SizeBytes, 128 * 1024},
		{"L2 ways", c.L2.Ways, 16},
		{"L2 MSHRs", c.L2.MSHRs, 128},
		{"mem partitions", c.NumMemParts, 16},
		{"flit bytes", c.Icnt.FlitBytes, 32},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if c.L1D.WriteBack {
		t.Error("L1D must be write-evict/write-no-allocate")
	}
	if !c.L2.WriteBack {
		t.Error("L2 must be write-back/write-allocate")
	}
	if c.SM.Scheduler != GTO {
		t.Error("default scheduler must be GTO")
	}
	// 2 MB aggregate L2.
	if tot := c.L2.SizeBytes * c.NumMemParts; tot != 2*1024*1024 {
		t.Errorf("aggregate L2 = %d, want 2 MiB", tot)
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestScaledValidates(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		c := Scaled(n)
		if err := c.Validate(); err != nil {
			t.Errorf("Scaled(%d): %v", n, err)
		}
		if c.NumSMs != n || c.NumMemParts != n {
			t.Errorf("Scaled(%d) = %d SMs / %d partitions", n, c.NumSMs, c.NumMemParts)
		}
	}
}

func TestScaledClampsNonPositive(t *testing.T) {
	if c := Scaled(0); c.NumSMs != 1 {
		t.Errorf("Scaled(0).NumSMs = %d, want 1", c.NumSMs)
	}
}

func TestL1DSets(t *testing.T) {
	c := Default()
	if got := c.L1D.Sets(); got != 32 {
		t.Errorf("L1D sets = %d, want 32 (24KB / 128B / 6-way)", got)
	}
	if got := c.L2.Sets(); got != 64 {
		t.Errorf("L2 sets = %d, want 64 (128KB / 128B / 16-way)", got)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	c := Default()
	c.L1D.SizeBytes = 1000 // not divisible
	if err := c.Validate(); err == nil {
		t.Error("expected error for indivisible L1D size")
	}

	c = Default()
	c.SM.MaxWarps = 95 // not divisible by schedulers
	if err := c.Validate(); err == nil {
		t.Error("expected error for MaxWarps not divisible by schedulers")
	}

	c = Default()
	c.SM.MaxThreads = 1000
	if err := c.Validate(); err == nil {
		t.Error("expected error for MaxThreads != MaxWarps*WarpSize")
	}

	c = Default()
	c.NumSMs = 0
	if err := c.Validate(); err == nil {
		t.Error("expected error for zero SMs")
	}

	c = Default()
	c.L2.LineBytes = 64
	if err := c.Validate(); err == nil {
		t.Error("expected error for mismatched line sizes")
	}
}

func TestSchedulerPolicyString(t *testing.T) {
	if GTO.String() != "GTO" || LRR.String() != "LRR" {
		t.Error("scheduler policy names wrong")
	}
	if SchedulerPolicy(9).String() == "" {
		t.Error("unknown policy must still render")
	}
}

func TestValidateMemorySystem(t *testing.T) {
	c := Default()
	c.DRAM.Banks = 0
	if c.Validate() == nil {
		t.Error("zero DRAM banks accepted")
	}
	c = Default()
	c.L1D.MSHRs = 0
	if c.Validate() == nil {
		t.Error("zero MSHRs accepted")
	}
	c = Default()
	c.NumMemParts = 0
	if c.Validate() == nil {
		t.Error("zero partitions accepted")
	}
	c = Default()
	c.L1D.SizeBytes = 24 * 1024 * 5 / 3 // breaks power-of-two sets
	if c.Validate() == nil {
		t.Error("non-power-of-two set count accepted")
	}
}
