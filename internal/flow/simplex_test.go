package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTreeRehangKeepsLayout re-hangs random subtrees of random trees and
// checks the whole thread-index layout against the parent links after
// every step: the thread is a preorder whose segment at each node is
// exactly its subtree, succNum and lastSucc describe that segment,
// revThread inverts thread, parentArc names the arc joining each node to
// its parent, and join finds the lowest common ancestor.
func TestTreeRehangKeepsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		tr := newTree(n)
		ends := make([][2]int, n) // arc id -> its two nodes
		for v := 0; v < n; v++ {
			tr.parentArc[v] = v
			ends[v] = [2]int{v, n}
		}
		checkTree(t, tr, ends)
		for step := 0; step < 80; step++ {
			uOut := rng.Intn(n)
			inside := subtree(tr, uOut)
			var outside []int
			for w := 0; w <= n; w++ {
				if !slices.Contains(inside, w) {
					outside = append(outside, w)
				}
			}
			uIn := inside[rng.Intn(len(inside))]
			vIn := outside[rng.Intn(len(outside))]
			join, du, dv := tr.join(uIn, vIn)
			if want := lca(tr, uIn, vIn); join != want || du != depthBelow(tr, uIn, join) || dv != depthBelow(tr, vIn, join) {
				t.Fatalf("trial %d step %d: join(%d, %d) = %d (%d, %d), want %d", trial, step, uIn, vIn, join, du, dv, want)
			}
			ends = append(ends, [2]int{uIn, vIn})
			tr.rehang(uIn, vIn, uOut, join, len(ends)-1)
			if tr.parent[uIn] != vIn {
				t.Fatalf("trial %d step %d: parent(%d) = %d, want %d", trial, step, uIn, tr.parent[uIn], vIn)
			}
			checkTree(t, tr, ends)
		}
	}
}

// subtree lists w and every node whose parent chain passes through it.
func subtree(tr *tree, w int) []int {
	var out []int
	for x := range tr.parent {
		for y := x; y >= 0; y = tr.parent[y] {
			if y == w {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func lca(tr *tree, u, v int) int {
	for x := u; x >= 0; x = tr.parent[x] {
		if slices.Contains(subtree(tr, x), v) {
			return x
		}
	}
	return -1
}

func depthBelow(tr *tree, w, top int) int {
	d := 0
	for ; w != top; w = tr.parent[w] {
		d++
	}
	return d
}

func checkTree(t *testing.T, tr *tree, ends [][2]int) {
	t.Helper()
	root := len(tr.parent) - 1
	seen := make([]bool, len(tr.parent))
	w := root
	for range tr.parent {
		if seen[w] {
			t.Fatalf("thread revisits %d", w)
		}
		seen[w] = true
		if tr.revThread[tr.thread[w]] != w {
			t.Fatalf("revThread(thread(%d)) = %d", w, tr.revThread[tr.thread[w]])
		}
		w = tr.thread[w]
	}
	if w != root {
		t.Fatalf("thread does not close on the root")
	}
	for w := range tr.parent {
		want := subtree(tr, w)
		if tr.succNum[w] != len(want) {
			t.Fatalf("succNum(%d) = %d, subtree has %d nodes", w, tr.succNum[w], len(want))
		}
		var seg []int
		last := w
		for x, i := w, 0; i < tr.succNum[w]; x, i = tr.thread[x], i+1 {
			seg = append(seg, x)
			last = x
		}
		slices.Sort(seg)
		if !slices.Equal(seg, want) {
			t.Fatalf("thread segment of %d = %v, subtree %v", w, seg, want)
		}
		if tr.lastSucc[w] != last {
			t.Fatalf("lastSucc(%d) = %d, segment ends at %d", w, tr.lastSucc[w], last)
		}
		if w == root {
			continue
		}
		e := ends[tr.parentArc[w]]
		if !(e == [2]int{w, tr.parent[w]} || e == [2]int{tr.parent[w], w}) {
			t.Fatalf("parentArc(%d) joins %v, parent is %d", w, e, tr.parent[w])
		}
	}
}
