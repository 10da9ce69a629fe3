package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_requests_total", "Requests per tenant.", "tenant", func() []LabeledValue {
		// Deliberately unsorted: the writer must sort by label value.
		return []LabeledValue{{Label: "zeta", Value: 3}, {Label: "acme", Value: 7}}
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# HELP test_requests_total Requests per tenant.\n" +
		"# TYPE test_requests_total counter\n" +
		"test_requests_total{tenant=\"acme\"} 7\n" +
		"test_requests_total{tenant=\"zeta\"} 3\n"
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if err := LintPrometheus(strings.NewReader(got)); err != nil {
		t.Errorf("labeled exposition fails lint: %v", err)
	}
}

func TestInfoExposition(t *testing.T) {
	r := NewRegistry()
	r.Info("test_build_info", "Build metadata.", map[string]string{
		"version": "v1.2.3", "go_version": "go1.23",
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	// Labels render sorted by key, value always 1.
	wantLine := `test_build_info{go_version="go1.23",version="v1.2.3"} 1`
	if !strings.Contains(got, wantLine+"\n") {
		t.Errorf("exposition missing %q:\n%s", wantLine, got)
	}
	if err := LintPrometheus(strings.NewReader(got)); err != nil {
		t.Errorf("info exposition fails lint: %v", err)
	}
}

func TestRegisterFamilyPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CounterVec accepted an invalid label name")
		}
	}()
	NewRegistry().CounterVec("m_total", "m", "bad-label!", func() []LabeledValue { return nil })
}

// TestConcurrentScrapeWithLabeledSeries scrapes a registry carrying a
// live accountant's ledger (fleet sums and labeled tenant families)
// while other goroutines keep accounting — the daemon's steady state.
// Run under -race this proves scrape-time sums read the rows safely.
func TestConcurrentScrapeWithLabeledSeries(t *testing.T) {
	a := NewAccountant(16)
	r := NewRegistry()
	a.Register(r)
	r.Info("test_build_info", "Build metadata.", map[string]string{"version": "dev"})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					a.Tenant(fmt.Sprintf("t%d", (g*31+i)%10)).Add(Requests, 1)
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("scrape %d fails lint: %v\n%s", i, err, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}
