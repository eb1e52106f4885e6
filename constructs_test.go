package whilepar

import (
	"context"
	"sync/atomic"
	"testing"
)

// An empty or negative iteration bound runs no iteration through either
// pipeline facade, and returns rather than panicking.
func TestWhileDoacrossEmpty(t *testing.T) {
	body := func(i, _ int, d int) bool {
		t.Errorf("iteration %d ran", i)
		return true
	}
	next := func(d int) int { return d + 1 }
	for _, max := range []int{0, -1, -5} {
		if valid := WhileDoacross(0, next, nil, max, 2, body); valid != 0 {
			t.Errorf("WhileDoacross max %d: valid = %d", max, valid)
		}
		if valid, err := WhileDoacrossContext(context.Background(), 0, next, nil, max, 2, body); valid != 0 || err != nil {
			t.Errorf("WhileDoacrossContext max %d: valid = %d, err = %v", max, valid, err)
		}
	}
}

func TestWhileDoacrossPublic(t *testing.T) {
	// while (d < 100) { out[i] = d; d = d*2 + 1 }: the dispatcher chain
	// is inherently sequential; the pipeline must produce exactly the
	// sequential terms.
	var out [64]int64
	valid := WhileDoacross(1, func(d int) int { return d*2 + 1 },
		func(d int) bool { return d < 100 }, 64, 4,
		func(i, _ int, d int) bool {
			atomic.StoreInt64(&out[i], int64(d))
			return true
		})
	want := []int64{1, 3, 7, 15, 31, 63}
	if valid != len(want) {
		t.Fatalf("valid = %d, want %d", valid, len(want))
	}
	for i, w := range want {
		if atomic.LoadInt64(&out[i]) != w {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], w)
		}
	}
}

func TestDoacrossPublic(t *testing.T) {
	// Distance-1 chain through the public construct.
	n := 500
	vals := make([]int64, n)
	res := Doacross(n, 4, func(i, vpn int, s *DoacrossSync) DoacrossControl {
		if i > 0 {
			s.Wait(i, i-1)
			atomic.StoreInt64(&vals[i], atomic.LoadInt64(&vals[i-1])+2)
		} else {
			atomic.StoreInt64(&vals[0], 2)
		}
		return DoacrossContinue
	})
	if res.Executed != n {
		t.Fatalf("executed %d", res.Executed)
	}
	for i := 0; i < n; i++ {
		if atomic.LoadInt64(&vals[i]) != int64(2*(i+1)) {
			t.Fatalf("vals[%d] = %d", i, vals[i])
		}
	}
}
