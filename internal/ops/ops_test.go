package ops

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aeon/internal/metrics"
)

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry(16)
	var c uint64 = 42
	reg.Counter("aeon_test_total", "A test counter.", nil, func() uint64 { return c })
	reg.Gauge("aeon_test_depth", "A test gauge.", Labels{"pool": "a"}, func() float64 { return 1.5 })
	var h metrics.Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	reg.Histogram("aeon_test_seconds", "A test summary.", nil, &h)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP aeon_test_total A test counter.",
		"# TYPE aeon_test_total counter",
		"aeon_test_total 42",
		"# TYPE aeon_test_depth gauge",
		`aeon_test_depth{pool="a"} 1.5`,
		"# TYPE aeon_test_seconds summary",
		`aeon_test_seconds{quantile="0.5"}`,
		`aeon_test_seconds{quantile="0.99"}`,
		`aeon_test_seconds{quantile="0.999"}`,
		"aeon_test_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram values are exported in seconds: 100 × 1ms ≈ 0.1s total.
	var sum float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "aeon_test_seconds_sum ") {
			fmt.Sscanf(line, "aeon_test_seconds_sum %g", &sum)
		}
	}
	if sum < 0.05 || sum > 0.2 {
		t.Fatalf("summary _sum = %v; want ~0.1 seconds", sum)
	}

	// Every non-comment line must be "name{labels} value" parseable, and the
	// output must be stable across renders (sorted, no map-order flapping).
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp <= 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
	var b2 strings.Builder
	reg.WritePrometheus(&b2)
	if b2.String() != out {
		t.Fatalf("exposition is not deterministic across renders")
	}
}

func TestRegistryHealth(t *testing.T) {
	reg := NewRegistry(16)
	degraded := false
	reg.Readiness("store", func() error {
		if degraded {
			return errors.New("quorum lost")
		}
		return nil
	})
	if ok, subs := reg.Health(); !ok || subs["store"] != "ok" {
		t.Fatalf("health = %v %v; want healthy", ok, subs)
	}
	degraded = true
	if ok, subs := reg.Health(); ok || !strings.Contains(subs["store"], "quorum lost") {
		t.Fatalf("health = %v %v; want degraded with cause", ok, subs)
	}
}

func TestEventRingShedsWhenLapped(t *testing.T) {
	reg := NewRegistry(8)
	for i := 0; i < 20; i++ {
		reg.Emit("tick", map[string]any{"i": i})
	}
	events, dropped, next, _ := reg.EventsSince(0)
	if dropped != 12 {
		t.Fatalf("dropped = %d; want 12 (20 emitted into a ring of 8)", dropped)
	}
	if len(events) != 8 {
		t.Fatalf("got %d events; want the 8 retained", len(events))
	}
	if events[0].Seq != 12 || events[len(events)-1].Seq != 19 {
		t.Fatalf("retained window = [%d, %d]; want [12, 19]", events[0].Seq, events[len(events)-1].Seq)
	}
	if next != 20 {
		t.Fatalf("next = %d; want 20", next)
	}
	// A current cursor sees no drops and no events.
	events, dropped, _, _ = reg.EventsSince(next)
	if dropped != 0 || len(events) != 0 {
		t.Fatalf("current cursor saw %d events, %d dropped; want none", len(events), dropped)
	}
}

func TestEventNotifyWakesFollower(t *testing.T) {
	reg := NewRegistry(8)
	_, _, next, wait := reg.EventsSince(0)
	done := make(chan Event, 1)
	go func() {
		<-wait
		events, _, _, _ := reg.EventsSince(next)
		done <- events[0]
	}()
	reg.Emit("poke", nil)
	select {
	case ev := <-done:
		if ev.Type != "poke" {
			t.Fatalf("woke with %q; want poke", ev.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower never woken by emit")
	}
}

func TestEmitConcurrent(t *testing.T) {
	reg := NewRegistry(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Emit("tick", nil)
			}
		}()
	}
	wg.Wait()
	if n := reg.EventSeq(); n != 1600 {
		t.Fatalf("EventSeq = %d; want 1600", n)
	}
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry(16)
	reg.Counter("aeon_admin_test_total", "Requests.", nil, func() uint64 { return 7 })
	healthy := true
	reg.Readiness("sub", func() error {
		if !healthy {
			return errors.New("wedged")
		}
		return nil
	})
	reg.Emit("hello", map[string]any{"n": 1})
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), b.String()
	}

	code, ctype, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/healthz content-type = %q", ctype)
	}

	code, ctype, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "aeon_admin_test_total 7") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content-type = %q", ctype)
	}

	code, ctype, body = get("/events")
	if code != http.StatusOK {
		t.Fatalf("/events = %d", code)
	}
	if !strings.Contains(ctype, "application/x-ndjson") {
		t.Fatalf("/events content-type = %q", ctype)
	}
	var ev Event
	if err := json.Unmarshal([]byte(strings.SplitN(body, "\n", 2)[0]), &ev); err != nil {
		t.Fatalf("/events line not JSON: %v\n%s", err, body)
	}
	if ev.Type != "hello" {
		t.Fatalf("/events first line = %+v; want hello", ev)
	}

	// Degrade a subsystem: liveness flips to 503 and names the cause.
	healthy = false
	code, _, body = get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "wedged") {
		t.Fatalf("degraded /healthz = %d %q; want 503 with cause", code, body)
	}
}

func TestAdminEventsLappedCursor(t *testing.T) {
	reg := NewRegistry(4)
	for i := 0; i < 10; i++ {
		reg.Emit("tick", nil)
	}
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first line")
	}
	var shed struct {
		Type    string `json:"type"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(sc.Bytes(), &shed); err != nil {
		t.Fatal(err)
	}
	if shed.Type != "ops.dropped" || shed.Dropped != 6 {
		t.Fatalf("lapped cursor first line = %+v; want ops.dropped with 6", shed)
	}
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != 4 {
		t.Fatalf("lapped dump carried %d events; want the 4 retained", lines)
	}
}

func TestSpanEvent(t *testing.T) {
	reg := NewRegistry(8)
	reg.Span(0xdeadbeef, 3, "forward", 17, "deposit", 2, 1, 250*time.Microsecond)
	events, _, _, _ := reg.EventsSince(0)
	if len(events) != 1 || events[0].Type != "trace.span" {
		t.Fatalf("events = %+v", events)
	}
	f := events[0].Fields
	if f["trace"] != TraceHex(0xdeadbeef) || f["action"] != "forward" || f["events"] != 2 || f["hop"] != 1 {
		t.Fatalf("span fields = %+v", f)
	}
	if TraceHex(0xdeadbeef) != "00000000deadbeef" {
		t.Fatalf("TraceHex = %q", TraceHex(0xdeadbeef))
	}
}
