package cloudstore

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// TestCASContentionThroughHeadKey drives N goroutines appending through one
// head-sequence key — the replication log's write pattern — with the shared
// Retry helper. Every increment must land exactly once: no lost updates, no
// double-claims, and the key's final value must equal the total append
// count.
func TestCASContentionThroughHeadKey(t *testing.T) {
	s := one(New())
	const head = "replog/head"
	const goroutines, each = 8, 25

	claimed := make(map[uint64]bool)
	var claimedMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var mine uint64
				err := Retry(DefaultRetry(), func() error {
					// Re-base on every attempt: read the current head, claim
					// the next sequence with CAS on its version.
					var cur uint64
					var ver uint64
					raw, v, err := s.Get(head)
					switch {
					case err == nil:
						cur, err = strconv.ParseUint(string(raw), 10, 64)
						if err != nil {
							return err
						}
						ver = v
					case errors.Is(err, ErrNotFound):
						ver = 0
					default:
						return err
					}
					mine = cur + 1
					_, err = s.CAS(head, ver, []byte(strconv.FormatUint(mine, 10)))
					return err
				})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				claimedMu.Lock()
				dup := claimed[mine]
				claimed[mine] = true
				claimedMu.Unlock()
				if dup {
					t.Errorf("sequence %d claimed twice", mine)
					return
				}
			}
		}()
	}
	wg.Wait()
	raw, _, err := s.Get(head)
	if err != nil {
		t.Fatal(err)
	}
	final, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(goroutines * each); final != want {
		t.Fatalf("head = %d after contention; want %d (lost updates)", final, want)
	}
	for seq := uint64(1); seq <= uint64(goroutines*each); seq++ {
		if !claimed[seq] {
			t.Fatalf("sequence %d never claimed (hole)", seq)
		}
	}
}

func TestRetryStopsOnNonConflictErrors(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Retry(DefaultRetry(), func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d; want immediate non-conflict failure", err, calls)
	}
	// Unavailability is a real failure, not contention.
	calls = 0
	err = Retry(DefaultRetry(), func() error {
		calls++
		return fmt.Errorf("op: %w", ErrUnavailable)
	})
	if !errors.Is(err, ErrUnavailable) || calls != 1 {
		t.Fatalf("err=%v calls=%d; want immediate ErrUnavailable", err, calls)
	}
}

func TestRetryBoundedAttempts(t *testing.T) {
	calls := 0
	err := Retry(RetryPolicy{Attempts: 3, Base: 1, Max: 1}, func() error {
		calls++
		return fmt.Errorf("op: %w", ErrVersionMismatch)
	})
	if !errors.Is(err, ErrVersionMismatch) || calls != 3 {
		t.Fatalf("err=%v calls=%d; want the last mismatch after 3 attempts", err, calls)
	}
}

func TestRetrySucceedsAfterConflicts(t *testing.T) {
	calls := 0
	err := Retry(DefaultRetry(), func() error {
		calls++
		if calls < 4 {
			return fmt.Errorf("op: %w", ErrVersionMismatch)
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d; want success on the 4th attempt", err, calls)
	}
}
