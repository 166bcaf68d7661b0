package netfault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newBackend starts a trivial backend that answers with body and
// returns its host plus a client over a fresh fault transport.
func newBackend(t *testing.T, body string) (host string, ft *Transport, client *http.Client, url string) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	ft = New(nil)
	return srv.Listener.Addr().String(), ft, &http.Client{Transport: ft}, srv.URL
}

func get(t *testing.T, client *http.Client, url string, timeout time.Duration) (string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestTransparentWhenClean(t *testing.T) {
	_, _, client, url := newBackend(t, "hello")
	body, err := get(t, client, url, time.Second)
	if err != nil || body != "hello" {
		t.Fatalf("clean round trip: %q, %v", body, err)
	}
}

func TestFailAtOpExactIndex(t *testing.T) {
	host, ft, client, url := newBackend(t, "ok")
	ft.FailAt(host, 1)
	if _, err := get(t, client, url, time.Second); err != nil {
		t.Fatalf("op 0 should be clean: %v", err)
	}
	if _, err := get(t, client, url, time.Second); !errors.Is(err, ErrRefused) {
		t.Fatalf("op 1 should refuse: %v", err)
	}
	if _, err := get(t, client, url, time.Second); err != nil {
		t.Fatalf("op 2 should be clean: %v", err)
	}
	if got := ft.Ops(host); got != 3 {
		t.Fatalf("ops = %d, want 3", got)
	}
}

func TestResetReachesBackendButCallerNeverLearns(t *testing.T) {
	reached := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached++
		io.WriteString(w, "did the work")
	}))
	defer srv.Close()
	ft := New(nil)
	client := &http.Client{Transport: ft}
	host := srv.Listener.Addr().String()
	ft.ResetAt(host, 0)
	if _, err := get(t, client, srv.URL, time.Second); !errors.Is(err, ErrReset) {
		t.Fatalf("want reset, got %v", err)
	}
	if reached != 1 {
		t.Fatalf("reset must still deliver the request: backend saw %d", reached)
	}
}

func TestDelayHonorsContextDeadline(t *testing.T) {
	host, ft, client, url := newBackend(t, "slow")
	ft.DelayAt(host, 0, 10*time.Second)
	start := time.Now()
	_, err := get(t, client, url, 30*time.Millisecond)
	if err == nil {
		t.Fatal("delayed past deadline should error")
	}
	if !Err(err) {
		t.Fatalf("delay timeout should be an injected error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delay did not respect context: %v", elapsed)
	}
	// A short delay passes through.
	ft.DelayAt(host, 1, time.Millisecond)
	if body, err := get(t, client, url, time.Second); err != nil || body != "slow" {
		t.Fatalf("short delay: %q, %v", body, err)
	}
}

func TestBlackholeBlocksUntilContextDone(t *testing.T) {
	host, ft, client, url := newBackend(t, "x")
	ft.BlackholeAt(host, 0)
	if _, err := get(t, client, url, 20*time.Millisecond); err == nil || !Err(err) {
		t.Fatalf("black hole should time the request out with an injected error, got %v", err)
	}
}

func TestPartialBodyTearsMidStream(t *testing.T) {
	host, ft, client, url := newBackend(t, strings.Repeat("abcdefgh", 16)) // 128 bytes
	ft.PartialAt(host, 0, 10)
	body, err := get(t, client, url, time.Second)
	if err == nil {
		t.Fatalf("truncated body should error the read, got %d clean bytes", len(body))
	}
	if len(body) > 10 {
		t.Fatalf("let %d bytes through, allowance was 10", len(body))
	}
	// A body shorter than the allowance ends cleanly.
	ft.PartialAt(host, 1, 1<<20)
	if body, err := get(t, client, url, time.Second); err != nil || len(body) != 128 {
		t.Fatalf("allowance > body must pass cleanly: %d bytes, %v", len(body), err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	host, ft, client, url := newBackend(t, "up")
	ft.Partition(host)
	if _, err := get(t, client, url, 20*time.Millisecond); err == nil || !Err(err) {
		t.Fatalf("partitioned backend should black-hole: %v", err)
	}
	ft.Heal(host)
	if body, err := get(t, client, url, time.Second); err != nil || body != "up" {
		t.Fatalf("healed backend: %q, %v", body, err)
	}
}

func TestRefuseFailsFast(t *testing.T) {
	host, ft, client, url := newBackend(t, "up")
	ft.Refuse(host)
	start := time.Now()
	_, err := get(t, client, url, 5*time.Second)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("refusing backend: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("refuse must fail fast, not wait for the deadline")
	}
}

func TestPerBackendCountersAreIndependent(t *testing.T) {
	hostA, ft, clientA, urlA := newBackend(t, "a")
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "b")
	}))
	defer srvB.Close()
	hostB := srvB.Listener.Addr().String()
	clientB := &http.Client{Transport: ft}

	ft.FailAt(hostB, 0)
	// Op 0 on A is clean even though op 0 on B is armed.
	if body, err := get(t, clientA, urlA, time.Second); err != nil || body != "a" {
		t.Fatalf("backend A op 0: %q, %v", body, err)
	}
	if _, err := get(t, clientB, srvB.URL, time.Second); !errors.Is(err, ErrRefused) {
		t.Fatalf("backend B op 0 should refuse: %v", err)
	}
	if a, b := ft.Ops(hostA), ft.Ops(hostB); a != 1 || b != 1 {
		t.Fatalf("independent counters: a=%d b=%d, want 1,1", a, b)
	}
}

func TestScheduleDeterministicFromSeed(t *testing.T) {
	cfg := ScheduleConfig{
		Horizon: 500,
		PFail:   0.05, PReset: 0.05, PDelay: 0.1, PBlackhole: 0.02, PPartial: 0.05,
	}
	a := NewSchedule(42, cfg)
	b := NewSchedule(42, cfg)
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a.Faults), len(b.Faults))
	}
	for op, f := range a.Faults {
		if b.Faults[op] != f {
			t.Fatalf("same seed diverged at op %d: %+v vs %+v", op, f, b.Faults[op])
		}
	}
	if a.Count() == 0 {
		t.Fatal("schedule drew no faults at these probabilities")
	}
	c := NewSchedule(43, cfg)
	same := len(c.Faults) == len(a.Faults)
	if same {
		for op, f := range a.Faults {
			if c.Faults[op] != f {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleHorizonExtensionIsPrefixStable(t *testing.T) {
	cfg := ScheduleConfig{Horizon: 100, PFail: 0.2, PDelay: 0.2}
	long := cfg
	long.Horizon = 200
	a := NewSchedule(7, cfg)
	b := NewSchedule(7, long)
	for op, f := range a.Faults {
		if b.Faults[op] != f {
			t.Fatalf("extending the horizon perturbed op %d: %+v vs %+v", op, f, b.Faults[op])
		}
	}
}

func TestScheduleArm(t *testing.T) {
	host, ft, client, url := newBackend(t, "ok")
	s := &Schedule{Faults: map[int64]Fault{1: {Kind: KindFail}}}
	s.Arm(ft, host)
	if _, err := get(t, client, url, time.Second); err != nil {
		t.Fatalf("op 0: %v", err)
	}
	if _, err := get(t, client, url, time.Second); !errors.Is(err, ErrRefused) {
		t.Fatalf("armed op 1 should refuse: %v", err)
	}
}
