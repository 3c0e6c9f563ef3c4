package repro

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jmxhttp"
	"repro/internal/tpcw"
)

// TestEndToEndFrontend drives the complete paper pipeline through the
// remote management plane, exactly as an operator would: run the monitored
// TPC-W simulation with a leak, then interrogate and control the manager
// agent over HTTP with the JMX client (what cmd/agingmon does).
func TestEndToEndFrontend(t *testing.T) {
	stack, err := NewStack(StackConfig{
		Seed:      21,
		Monitored: true,
		Scale:     tpcw.Scale{Items: 200, Customers: 100, Seed: 22},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if _, err := stack.InjectLeak(tpcw.CompHome, 100<<10, 20, 5); err != nil {
		t.Fatal(err)
	}
	stack.Run(10*time.Minute, 20)

	ts := httptest.NewServer(jmxhttp.NewHandler(stack.Framework.Server()))
	defer ts.Close()
	client := jmxhttp.NewClient(ts.URL, nil)

	// Discover the management plane.
	agents, err := client.Names("monitoring:*")
	if err != nil || len(agents) != 7 {
		t.Fatalf("agents over HTTP = %v, %v", agents, err)
	}
	proxies, err := client.Names("aging:type=ACProxy,*")
	if err != nil || len(proxies) != 14 {
		t.Fatalf("AC proxies over HTTP = %d, %v", len(proxies), err)
	}

	// Ask the manager who is aging the application.
	suspectsAny, err := client.Invoke("aging:type=Manager", "Suspects", "memory")
	if err != nil {
		t.Fatal(err)
	}
	suspects := suspectsAny.([]any)
	if len(suspects) == 0 || suspects[0].(string) != tpcw.CompHome {
		t.Fatalf("remote suspects = %v", suspects)
	}

	// Inspect the suspect's AC proxy.
	size, err := client.Get("aging:type=ACProxy,component=tpcw.home", "ObjectSizeBytes")
	if err != nil || size.(float64) < float64(100<<10) {
		t.Fatalf("proxy size = %v, %v", size, err)
	}
	inv, err := client.Get("aging:type=ACProxy,component=tpcw.home", "Invocations")
	if err != nil || inv.(float64) <= 0 {
		t.Fatalf("proxy invocations = %v, %v", inv, err)
	}

	// Deactivate and reactivate the AC remotely.
	if err := client.Set("aging:type=ACProxy,component=tpcw.home", "Enabled", false); err != nil {
		t.Fatal(err)
	}
	enabled, _ := client.Get("aging:type=ACProxy,component=tpcw.home", "Enabled")
	if enabled.(bool) {
		t.Fatal("remote deactivation had no effect")
	}
	if _, err := client.Invoke("aging:type=Manager", "ActivateAC", "tpcw.home"); err != nil {
		t.Fatal(err)
	}

	// Micro-reboot the suspect remotely and verify the reclaim.
	freed, err := client.Invoke("aging:type=Manager", "MicroReboot", "tpcw.home")
	if err != nil || freed.(float64) < float64(100<<10) {
		t.Fatalf("remote micro-reboot freed %v, %v", freed, err)
	}
	sizeAfter, _ := client.Get("aging:type=ACProxy,component=tpcw.home", "ObjectSizeBytes")
	if sizeAfter.(float64) >= size.(float64) {
		t.Fatalf("size did not shrink after reboot: %v -> %v", size, sizeAfter)
	}

	// The time-to-exhaustion estimate is queryable.
	if _, err := client.Invoke("aging:type=Manager", "TimeToExhaustion"); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicExperiments guards the reproducibility property: two
// identical runs of a leak scenario produce identical manager evidence.
func TestDeterministicExperiments(t *testing.T) {
	run := func() (uint64, float64) {
		stack, err := NewStack(StackConfig{
			Seed:      77,
			Monitored: true,
			Scale:     tpcw.Scale{Items: 150, Customers: 80, Seed: 78},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer stack.Close()
		if _, err := stack.InjectLeak(tpcw.CompHome, 50<<10, 30, 9); err != nil {
			t.Fatal(err)
		}
		stack.Run(8*time.Minute, 15)
		data, err := stack.Framework.Manager().Data(ResourceMemory)
		if err != nil {
			t.Fatal(err)
		}
		var consumption float64
		for _, d := range data {
			if d.Name == tpcw.CompHome {
				consumption = d.Consumption
			}
		}
		return stack.Driver.Completed(), consumption
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("runs diverged: completed %d vs %d, consumption %v vs %v", c1, c2, m1, m2)
	}
}
