package nok

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// bigStore builds a store large enough that a forced-scan query runs for
// many cancellation checkpoints.
func bigStore(t *testing.T, books int) *Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&b, "<book><title>t%d</title><price>%d</price></book>", i, i%200)
	}
	b.WriteString("</lib>")
	st, err := Create(filepath.Join(t.TempDir(), "db"), strings.NewReader(b.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestQueryContextPreCancelled(t *testing.T) {
	st := newStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := st.QueryContext(ctx, `//book`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query: err = %v, want context.Canceled", err)
	}
}

func TestQueryContextDeadlineMidMatch(t *testing.T) {
	st := bigStore(t, 10000)
	opts := &QueryOptions{Strategy: StrategyScan}

	// Baseline: the uncancelled query takes measurable time.
	t0 := time.Now()
	if _, _, err := st.QueryWithOptions(`//book[price<100]`, opts); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), baseline/20)
	defer cancel()
	t0 = time.Now()
	_, _, err := st.QueryWithOptionsContext(ctx, `//book[price<100]`, opts)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline query: err = %v, want context.DeadlineExceeded", err)
	}
	if baseline > 10*time.Millisecond && elapsed > baseline {
		t.Errorf("deadline noticed after %v, full query takes %v", elapsed, baseline)
	}
}

// cancelAfterPolls reports context.Canceled from its Nth Err() call on.
// Timer-driven cancellation depends on the scheduler running a second
// goroutine mid-query (flaky on single-CPU machines); counting checkpoint
// polls instead deterministically lands the cancellation mid-match.
type cancelAfterPolls struct {
	context.Context
	n     int
	calls int
}

func (c *cancelAfterPolls) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return c.Context.Err()
}

func TestQueryContextCancelMidMatch(t *testing.T) {
	st := bigStore(t, 10000)
	opts := &QueryOptions{Strategy: StrategyScan}

	// Count how many checkpoint polls a full evaluation makes, then cancel
	// halfway through a second run.
	probe := &cancelAfterPolls{Context: context.Background(), n: int(^uint(0) >> 1)}
	if _, _, err := st.QueryWithOptionsContext(probe, `//book[price<100]`, opts); err != nil {
		t.Fatal(err)
	}
	if probe.calls < 4 {
		t.Fatalf("evaluation polled the context only %d times; cannot cancel mid-match", probe.calls)
	}

	ctx := &cancelAfterPolls{Context: context.Background(), n: probe.calls / 2}
	_, _, err := st.QueryWithOptionsContext(ctx, `//book[price<100]`, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
}

func TestQueryContextNilAndBackground(t *testing.T) {
	st := newStore(t)
	// Background context must not change results.
	rs, err := st.QueryContext(context.Background(), `/bib/book/title`)
	if err != nil || len(rs) != 4 {
		t.Fatalf("background ctx query: %d results, err %v", len(rs), err)
	}
}

func TestEpochBumpsOnMutation(t *testing.T) {
	st := newStore(t)
	if e := st.Epoch(); e != 1 {
		t.Fatalf("fresh store epoch = %d, want 1", e)
	}
	if err := st.Insert("0", strings.NewReader(`<book><title>x</title></book>`)); err != nil {
		t.Fatal(err)
	}
	if e := st.Epoch(); e != 2 {
		t.Fatalf("post-insert epoch = %d, want 2", e)
	}
	if err := st.Delete("0.5"); err != nil {
		t.Fatal(err)
	}
	if e := st.Epoch(); e != 3 {
		t.Fatalf("post-delete epoch = %d, want 3", e)
	}
	// Rejected mutations commit nothing, whether they fail before reaching
	// the store (bad id) or inside it (no such parent).
	if err := st.Insert("not-an-id", strings.NewReader(`<x/>`)); err == nil {
		t.Fatal("bad parent id accepted")
	}
	if err := st.Insert("0.99", strings.NewReader(`<x/>`)); err == nil {
		t.Fatal("missing parent accepted")
	}
	if e := st.Epoch(); e != 3 {
		t.Fatalf("epoch after rejected inserts = %d, want 3", e)
	}
}

// TestConcurrentQueryUpdateRace exercises parallel readers (Query, Stats,
// NodeCount, TagCount, Value) against a writer alternating Insert and
// Delete on the same store. Run under -race via `make check`; it guards the
// RWMutex discipline in nok.go.
func TestConcurrentQueryUpdateRace(t *testing.T) {
	st := newStore(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 4 {
				case 0:
					if _, err := st.Query(`//book/title`); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					_, err := st.QueryContext(ctx, `//book[price<100]`)
					cancel()
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("ctx query: %v", err)
						return
					}
				case 2:
					_ = st.NodeCount()
					_ = st.Stats()
					_ = st.Epoch()
				case 3:
					_ = st.TagCount("book")
					if _, _, err := st.Value("0.1.2"); err != nil {
						t.Errorf("value: %v", err)
						return
					}
				}
			}
		}(r)
	}

	// Writer: insert a fifth book, delete it again, 50 rounds.
	for i := 0; i < 50; i++ {
		frag := fmt.Sprintf(`<book year="2004"><title>g%d</title><price>%d</price></book>`, i, i)
		if err := st.Insert("0", strings.NewReader(frag)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := st.Delete("0.5"); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	rs, err := st.Query(`/bib/book`)
	if err != nil || len(rs) != 4 {
		t.Fatalf("final state: %d books, err %v", len(rs), err)
	}
}
