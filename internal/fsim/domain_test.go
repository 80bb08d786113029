package fsim

import (
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/workload"
)

// TestDomainMixSweep drives the file-system domain through every built-in
// scenario mix with interleaved forces, minimal installs, and purges, then
// a forced crash: recovery must reproduce the driver's model exactly and
// the directory listing must stay consistent.
func TestDomainMixSweep(t *testing.T) {
	for _, mixName := range workload.MixNames() {
		t.Run(mixName, func(t *testing.T) {
			mix, err := workload.ParseMix(mixName)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.New(core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			Register(eng.Registry())
			dom := NewDomain(New(eng, "fs"))
			drv, err := workload.NewMixDriver(mix, 0xf51)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 160; step++ {
				switch {
				case step%3 == 1:
					err = eng.Log().Force()
				case step%4 == 2:
					err = eng.InstallOne()
				case step%23 == 19:
					err = eng.FlushAll()
				}
				if err == nil {
					err = drv.Step(dom)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if err := eng.Log().Force(); err != nil {
				t.Fatal(err)
			}
			eng.Crash()
			if _, err := eng.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := drv.Verify(dom); err != nil {
				t.Fatalf("recovered state diverges from the mix model: %v", err)
			}
			if err := dom.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDomainServesDuringRedo crashes a file-system mix run and reopens it
// with on-demand recovery: reads and the directory listing must come back
// correct while chains are still draining.
func TestDomainServesDuringRedo(t *testing.T) {
	mix, err := workload.ParseMix("write-burst")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	dom := NewDomain(New(eng, "fs"))
	drv, err := workload.NewMixDriver(mix, 0xf52)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Steps(dom, 120); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.RecoverOnDemand(); err != nil {
		t.Fatal(err)
	}
	// Every read and the full listing below demand-redoes what it needs.
	if err := drv.Verify(dom); err != nil {
		t.Fatalf("mid-drain state diverges from the mix model: %v", err)
	}
	if err := dom.Check(); err != nil {
		t.Fatal(err)
	}
}
