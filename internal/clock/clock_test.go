package clock_test

import (
	"slices"
	"sync"
	"testing"

	"hsched/internal/clock"
)

// keys lists the cache's keys hottest first.
func keys[V any](c *clock.Cache[string, V]) []string {
	var out []string
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

func touch[V any](t *testing.T, c *clock.Cache[string, V], k string) {
	t.Helper()
	e := c.Get(k)
	if e == nil {
		t.Fatalf("%s not resident", k)
	}
	e.Touch()
}

func TestSecondChanceRotation(t *testing.T) {
	c := clock.New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i, 0)
	}
	touch(t, c, "a")
	// a is the cold end but touched: it rotates to the hot end with its
	// bit cleared and b, next coldest, goes.
	if v, ok := c.Put("d", 3, 0); !ok || v != 1 {
		t.Fatalf("evicted %d, %v; want b's value 1", v, ok)
	}
	if got, want := keys(c), []string{"d", "a", "c"}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	// a's second chance is spent: untouched since, it is the victim
	// once it reaches the cold end again.
	c.Put("e", 4, 0)
	if v, _ := c.Put("f", 5, 0); v != 0 {
		t.Fatalf("evicted %d, want a's value 0", v)
	}
}

func TestCostWeightedSample(t *testing.T) {
	// Capacity 8: the sample is ⌈9/4⌉ = 3 untouched entries from the
	// cold end, so a, b and c are weighed and the free d is out of
	// reach. b and c tie; the colder one goes.
	c := clock.New[string, string](8)
	for _, kc := range []struct {
		k    string
		cost int64
	}{{"a", 7}, {"b", 3}, {"c", 3}, {"d", 0}, {"e", 9}, {"f", 9}, {"g", 9}, {"h", 9}} {
		c.Put(kc.k, kc.k, kc.cost)
	}
	if v, ok := c.Put("i", "i", 9); !ok || v != "b" {
		t.Fatalf("evicted %q, %v; want b", v, ok)
	}
	// With b gone the sample slides to a, c and d: the free d goes.
	if v, _ := c.Put("j", "j", 9); v != "d" {
		t.Fatalf("evicted %q; want d", v)
	}
}

func TestSampleCapped(t *testing.T) {
	// Capacity 40 would give a quarter-sized sample of 11; the cap of
	// 8 holds it to keys 0..7, whose cheapest is 7 — though 39 is
	// cheaper still.
	c := clock.New[int, int](40)
	for k := range 40 {
		c.Put(k, k, int64(100-k))
	}
	if v, _ := c.Put(40, 40, 100); v != 7 {
		t.Fatalf("evicted %d, want 7", v)
	}
}

func TestTouchedSoleResidentEvicted(t *testing.T) {
	c := clock.New[string, int](1)
	c.Put("a", 1, 0)
	touch(t, c, "a")
	if v, ok := c.Put("b", 2, 0); !ok || v != 1 {
		t.Fatalf("evicted %d, %v; want the resident a", v, ok)
	}
	if c.Len() != 1 || c.Get("b") == nil {
		t.Fatalf("the new entry must stay resident: %v", keys(c))
	}
}

func TestRefresh(t *testing.T) {
	c := clock.New[string, int](4)
	c.Put("a", 0, 5)
	c.Put("b", 1, 1)
	c.Put("c", 2, 1)
	c.Put("d", 3, 1)
	if _, ok := c.Put("a", 10, 0); ok {
		t.Fatal("a refresh evicted")
	}
	if c.Len() != 4 || c.Get("a").Value != 10 {
		t.Fatalf("refresh: len %d, value %d", c.Len(), c.Get("a").Value)
	}
	if got, want := keys(c), []string{"a", "d", "c", "b"}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	// Touch everything but a, so the scan rotates b, c and d and wraps
	// round to weigh a (refreshed cost 0) against b (cost 1).
	for _, k := range []string{"b", "c", "d"} {
		touch(t, c, k)
	}
	if v, _ := c.Put("e", 4, 1); v != 10 {
		t.Fatalf("evicted %d, want a (cost refreshed to 0)", v)
	}
}

func TestRemoveClearAndAll(t *testing.T) {
	c := clock.New[string, int](4)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i, 0)
	}
	if v, ok := c.Remove("b"); !ok || v != 1 {
		t.Fatalf("Remove(b) = %d, %v", v, ok)
	}
	if _, ok := c.Remove("b"); ok {
		t.Fatal("second Remove(b) found it")
	}
	if got, want := keys(c), []string{"c", "a"}; !slices.Equal(got, want) || c.Len() != 2 {
		t.Fatalf("after Remove: %v (len %d), want %v", got, c.Len(), want)
	}
	for k := range c.All() {
		if k != "c" {
			t.Fatalf("first yield %q, want c", k)
		}
		break
	}
	c.Clear()
	if c.Len() != 0 || len(keys(c)) != 0 || c.Get("a") != nil {
		t.Fatal("Clear left entries")
	}
	c.Put("x", 9, 0)
	if got := keys(c); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("after Clear and Put: %v", got)
	}
}

func TestNilCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if clock.New[string, int](capacity) != nil {
			t.Fatalf("New(%d) is not the disabled nil cache", capacity)
		}
	}
	var c *clock.Cache[string, int]
	if _, ok := c.Put("a", 1, 0); ok {
		t.Fatal("nil Put evicted")
	}
	if c.Get("a") != nil || c.Len() != 0 || len(keys(c)) != 0 {
		t.Fatal("nil cache holds an entry")
	}
	if _, ok := c.Remove("a"); ok {
		t.Fatal("nil Remove found an entry")
	}
	c.Clear()
}

// TestTouchConcurrentWithPut runs lock-free touches against evicting
// Puts under the owner's mutex: the pattern every caller uses. Run
// under -race.
func TestTouchConcurrentWithPut(t *testing.T) {
	const capacity = 16
	var mu sync.Mutex
	c := clock.New[int, int](capacity)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				k := (i*7 + g) % 40
				mu.Lock()
				e := c.Get(k)
				if e == nil {
					c.Put(k, k, int64(k%3))
					mu.Unlock()
					continue
				}
				v := e.Value
				mu.Unlock()
				e.Touch()
				if v != k {
					t.Errorf("key %d holds %d", k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != capacity {
		t.Fatalf("len %d, want %d", c.Len(), capacity)
	}
}
