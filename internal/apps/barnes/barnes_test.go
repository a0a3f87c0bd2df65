package barnes

import (
	"math"
	"testing"
)

func TestTreeMomentsConserveMass(t *testing.T) {
	bd := initBodies(128)
	root, work := buildTree(bd, 128, &arena{})
	if work < 128 {
		t.Fatalf("tree build work = %d", work)
	}
	var mass float64
	for i := 0; i < 128; i++ {
		mass += bd[i*bodyWords+3]
	}
	if math.Abs(root.mass-mass) > 1e-9 {
		t.Fatalf("root mass %v, want %v", root.mass, mass)
	}
}

func TestThetaZeroMatchesDirectSum(t *testing.T) {
	// With the opening criterion never accepted (cells always opened),
	// Barnes-Hut reduces to the exact pairwise sum. theta is a constant,
	// so instead verify against the direct sum within the accuracy the
	// multipole acceptance guarantees for well-separated bodies.
	const n = 64
	bd := initBodies(n)
	root, _ := buildTree(bd, n, &arena{})
	var fx, fy, fz float64
	inter := 0
	root.force(bd, 0, &fx, &fy, &fz, &inter)
	// Direct sum.
	var dx, dy, dz float64
	for j := 1; j < n; j++ {
		ddx := bd[j*bodyWords] - bd[0]
		ddy := bd[j*bodyWords+1] - bd[1]
		ddz := bd[j*bodyWords+2] - bd[2]
		r2 := ddx*ddx + ddy*ddy + ddz*ddz
		w := bd[j*bodyWords+3] / ((r2 + 0.05) * math.Sqrt(r2+0.05))
		dx += ddx * w
		dy += ddy * w
		dz += ddz * w
	}
	mag := math.Sqrt(dx*dx + dy*dy + dz*dz)
	err := math.Sqrt((fx-dx)*(fx-dx) + (fy-dy)*(fy-dy) + (fz-dz)*(fz-dz))
	if err > 0.15*mag {
		t.Fatalf("BH force error %.3f of magnitude (fx %v vs %v)", err/mag, fx, dx)
	}
	if inter >= n-1+10 {
		t.Logf("interactions = %d (no approximation benefit at n=%d)", inter, n)
	}
}

func TestSerialRunDeterministic(t *testing.T) {
	if serialRun(96, 2) != serialRun(96, 2) {
		t.Fatal("serial run not deterministic")
	}
}

func TestArenaReuseRebuildsIdenticalTree(t *testing.T) {
	// Every build of a run reuses the run's arena: a rebuild over
	// recycled nodes must compute exactly what a fresh arena does,
	// including when the new tree is smaller than the old one.
	big, small := initBodies(3*arenaChunk), initBodies(40)
	var reused arena
	buildTree(big, 3*arenaChunk, &reused)
	for _, n := range []int{40, 3 * arenaChunk} {
		bd := small
		if n > 40 {
			bd = big
		}
		r1, w1 := buildTree(bd, n, &reused)
		r2, w2 := buildTree(bd, n, &arena{})
		if w1 != w2 || r1.mass != r2.mass || r1.mx != r2.mx {
			t.Fatalf("n=%d: reused arena built work %d mass %v, fresh %d %v", n, w1, r1.mass, w2, r2.mass)
		}
		for i := 0; i < n; i += 7 {
			var f1, f2 [3]float64
			var i1, i2 int
			r1.force(bd, i, &f1[0], &f1[1], &f1[2], &i1)
			r2.force(bd, i, &f2[0], &f2[1], &f2[2], &i2)
			if f1 != f2 || i1 != i2 {
				t.Fatalf("n=%d body %d: force %v/%d on reused arena, %v/%d fresh", n, i, f1, i1, f2, i2)
			}
		}
	}
}
