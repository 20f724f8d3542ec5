//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestIdleCarrierKeepsNoKernel: once a world has run, its kernel is
// garbage although its carriers wait on the idle list, so none of them
// holds a process, a body (this one's holds the kernel) or the kernel.
func TestIdleCarrierKeepsNoKernel(t *testing.T) {
	collected := make(chan struct{})
	func() {
		k := NewKernel()
		k.SpawnN(16, "p", func(i int, p *Proc) {
			if p.k != k {
				t.Error("a process of another kernel")
			}
			p.Sleep(Duration(i))
		})
		runtime.AddCleanup(k, func(ch chan struct{}) { close(ch) }, collected)
		k.Run()
	}()
	if n := idleCarriers(); n != 16 {
		t.Fatalf("%d carriers idle after a world of 16, want 16", n)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the kernel of a finished world was never collected: an idle carrier still reaches it")
}
