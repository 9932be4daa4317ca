package fleet

// TestFaultDrillTable reproduces the EXPERIMENTS.md fault-drill table:
// a 3-replica fleet serves a fixed amount of term-search traffic with
// 0, 1, and 2 replicas force-failing every storage access, and the
// drill reports the client-visible error rate and latency tail per
// scenario. Gated behind FLEET_DRILL=1 so the regular suite stays fast:
//
//	FLEET_DRILL=1 go test -run TestFaultDrillTable -v ./internal/fleet

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/storage"
)

func runDrillScenario(t *testing.T, degraded int) (errRate float64, p50, p99v time.Duration) {
	t.Helper()
	cf := newChaosFleet(t, Config{MaxRetries: 3})
	for i := 0; i < degraded; i++ {
		cf.replicas[i].SetFaults(&storage.FaultInjector{FailEvery: 1})
	}

	const workers, perWorker = 4, 50
	var mu sync.Mutex
	var lats []time.Duration
	errs := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				start := time.Now()
				_, err := cf.fleet.TermSearchContext(context.Background(),
					[]string{"search", "engine"}, db.TermSearchOptions{TopK: 5})
				el := time.Since(start)
				mu.Lock()
				if err != nil {
					errs++
				} else {
					lats = append(lats, el)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	total := workers * perWorker
	sortedP := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		s := append([]time.Duration(nil), lats...)
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		idx := int(float64(len(s)) * q)
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	return float64(errs) / float64(total), sortedP(0.50), sortedP(0.99)
}

func TestFaultDrillTable(t *testing.T) {
	if os.Getenv("FLEET_DRILL") == "" {
		t.Skip("set FLEET_DRILL=1 to run the measured fault drill")
	}
	fmt.Println("| degraded replicas | client error rate | p50 | p99 |")
	fmt.Println("|---:|---:|---:|---:|")
	for _, degraded := range []int{0, 1, 2} {
		errRate, p50, p99v := runDrillScenario(t, degraded)
		fmt.Printf("| %d of 3 | %.2f%% | %s | %s |\n",
			degraded, errRate*100, p50.Round(10*time.Microsecond), p99v.Round(10*time.Microsecond))
	}
}
