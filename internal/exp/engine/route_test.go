package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// payload wraps a fixed route payload in the lazy form DoRouted takes.
func payload(v any) func() any { return func() any { return v } }

// TestRoutePayloadBuiltOnlyWhenRouted: the payload func runs only for a
// memo and store miss on an engine with a router and routing enabled —
// a warm hit, a store hit, a router-less engine, and a DisableRouting
// context never pay to build it.
func TestRoutePayloadBuiltOnlyWhenRouted(t *testing.T) {
	var built atomic.Int64
	lazy := func() any { built.Add(1); return "p" }
	compute := func() (any, error) { return 1, nil }
	ctx := context.Background()

	plain := New(1)
	plain.DoRouted(ctx, "k", lazy, compute)
	if built.Load() != 0 {
		t.Fatal("payload built on an engine without a router")
	}

	e := New(1)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		return 2, true, nil
	})
	e.DoRouted(DisableRouting(ctx), "off", lazy, compute)
	if built.Load() != 0 {
		t.Fatal("payload built on a DisableRouting context")
	}
	e.SetStore(mapStore{"stored": 3})
	if v, _ := e.DoRouted(ctx, "stored", lazy, compute); v != 3 || built.Load() != 0 {
		t.Fatalf("store hit = %v, payload built %d times", v, built.Load())
	}
	if v, _ := e.DoRouted(ctx, "k", lazy, compute); v != 2 || built.Load() != 1 {
		t.Fatalf("routed miss = %v, payload built %d times, want 1", v, built.Load())
	}
	e.DoRouted(ctx, "k", lazy, compute)
	if built.Load() != 1 {
		t.Fatal("payload rebuilt on a memo hit")
	}
}

// mapStore is a read-only engine Store over a fixed map.
type mapStore map[string]any

func (m mapStore) Load(key string) (any, bool) { v, ok := m[key]; return v, ok }
func (m mapStore) Save(string, any)            {}

// TestRouteResolvesAndMemoizes: a handled route result is memoized under
// the key like a local computation — the second request is a hit and the
// router is not consulted again.
func TestRouteResolvesAndMemoizes(t *testing.T) {
	e := New(2)
	var calls atomic.Int64
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		calls.Add(1)
		return payload.(int) * 10, true, nil
	})
	compute := func() (any, error) { t.Fatal("computed locally despite router"); return nil, nil }

	for i := 0; i < 2; i++ {
		v, err := e.DoRouted(context.Background(), "k", payload(7), compute)
		if err != nil || v.(int) != 70 {
			t.Fatalf("DoRouted = %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("router called %d times, want 1 (second request is a memo hit)", calls.Load())
	}
	st := e.Stats()
	if st.Remote != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want Remote 1, Hits 1, Misses 0", st)
	}
}

// TestRouteDeclinedComputesLocally: handled=false falls through to the
// local pool, and the router sees each declined key once per miss.
func TestRouteDeclinedComputesLocally(t *testing.T) {
	e := New(2)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		return nil, false, nil
	})
	v, err := e.DoRouted(context.Background(), "k", payload("payload"), func() (any, error) { return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("DoRouted = %v, %v", v, err)
	}
	st := e.Stats()
	if st.Remote != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Remote 0, Misses 1", st)
	}
}

// TestRouteSkippedWithoutPayload: nil payloads and plain Do calls never
// reach the router.
func TestRouteSkippedWithoutPayload(t *testing.T) {
	e := New(2)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		t.Error("router consulted for nil payload")
		return nil, false, nil
	})
	if v, err := e.Do(context.Background(), "k", func() (any, error) { return 1, nil }); err != nil || v.(int) != 1 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if v, err := e.DoRouted(context.Background(), "k2", nil, func() (any, error) { return 2, nil }); err != nil || v.(int) != 2 {
		t.Fatalf("DoRouted = %v, %v", v, err)
	}
}

// TestRouteDisabledByContext: DisableRouting forces local computation on
// an engine with a router — the forwarded-request loop guard.
func TestRouteDisabledByContext(t *testing.T) {
	e := New(2)
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		t.Error("router consulted on a DisableRouting context")
		return nil, false, nil
	})
	ctx := DisableRouting(context.Background())
	v, err := e.DoRouted(ctx, "k", payload("payload"), func() (any, error) { return 3, nil })
	if err != nil || v.(int) != 3 {
		t.Fatalf("DoRouted = %v, %v", v, err)
	}
}

// TestRouteCancellationWithdraws: a routed cancellation is not a fact
// about the key — the entry is withdrawn and the next request retries
// the router for real.
func TestRouteCancellationWithdraws(t *testing.T) {
	e := New(2)
	var calls atomic.Int64
	e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
		if calls.Add(1) == 1 {
			return nil, true, context.Canceled
		}
		return 99, true, nil
	})
	if _, err := e.DoRouted(context.Background(), "k", payload(1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("first DoRouted err = %v, want context.Canceled", err)
	}
	v, err := e.DoRouted(context.Background(), "k", payload(1), nil)
	if err != nil || v.(int) != 99 {
		t.Fatalf("retry DoRouted = %v, %v", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("router called %d times, want 2", calls.Load())
	}
}

// TestRouteSingleFlight: concurrent requests for one key share one
// routed flight, on bounded and unbounded engines alike.
func TestRouteSingleFlight(t *testing.T) {
	for _, capacity := range []int{0, 4} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			e := NewBounded(4, capacity)
			var calls atomic.Int64
			gate := make(chan struct{})
			e.SetRoute(func(ctx context.Context, key string, payload any) (any, bool, error) {
				calls.Add(1)
				<-gate
				return "v", true, nil
			})
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err := e.DoRouted(context.Background(), "k", payload("p"), nil)
					if err != nil || v.(string) != "v" {
						t.Errorf("DoRouted = %v, %v", v, err)
					}
				}()
			}
			close(gate)
			wg.Wait()
			if calls.Load() != 1 {
				t.Fatalf("router called %d times, want 1", calls.Load())
			}
		})
	}
}
