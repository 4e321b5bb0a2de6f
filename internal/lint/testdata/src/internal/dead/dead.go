// Package dead is the deadexport fixture: exported symbols with and
// without a non-test reference. cmd/fixture references Live, and Live
// reaches the negative cases.
package dead

import (
	"container/heap"
	"fmt"
)

// Orphan has no reference anywhere.
func Orphan() int { return 1 } // positive: dead func

// Limit is never read.
const Limit = 3 // positive: dead const

// Box is live through Live.
type Box struct{ n int }

// Unused is never called.
func (b *Box) Unused() int { return b.n } // positive: dead method

// TestOnly is referenced from dead_test.go alone.
func TestOnly() int { return 2 } // positive: test files do not count

// Recurse calls only itself; a reference inside its own declaration
// does not keep it alive.
func Recurse(n int) int { // positive: recursion only
	if n <= 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Kept is a deliberate keep.
func Kept() int { return 4 } //uavdc:allow deadexport fixture: deliberate keep

// Callback is used only as a function value.
func Callback() int { return 5 } // clean: a value use is a use

// queue reaches heap.Init as a heap.Interface, which the module never
// names: the parameter type is what mentions the interface.
type queue []int

func (q queue) Len() int           { return len(q) }            // clean: heap.Interface
func (q queue) Less(i, j int) bool { return q[i] < q[j] }       // clean: heap.Interface
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }  // clean: heap.Interface
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) } // clean: heap.Interface

// Pop removes the smallest element.
func (q *queue) Pop() any { // clean: heap.Interface
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Name prints through fmt's Stringer check.
type Name string

// String implements fmt.Stringer, which is always exempt.
func (n Name) String() string { return "name:" + string(n) } // clean: fmt.Stringer

// Sizer is a module interface: its implementations' methods are reached
// through it.
type Sizer interface{ Size() int }

type blob struct{}

// Size implements Sizer.
func (blob) Size() int { return 6 } // clean: implements a module interface

// Live is the fixture's one reachable entry: it touches every clean case.
func Live() string {
	f := Callback
	q := &queue{3, 1, 2}
	heap.Init(q)
	b := &Box{n: heap.Pop(q).(int)}
	var s Sizer = blob{}
	k := Knobs{Keyed: 1}
	k.Assigned = 2
	k.Counted++
	p := &k.Addr
	*p = 3
	pair := Pair{4, 5}
	// Reads do not set a field.
	read := k.Unset + k.TestSet + k.Wire + k.Allowed
	return fmt.Sprint(f()+b.n+s.Size()+k.Keyed+k.Assigned+k.Counted+k.Addr+pair.A+pair.B+read, Name("x"))
}

// Knobs is the field rule's fixture: every exported field of an exported
// struct needs a non-test setter.
type Knobs struct {
	Unset    int // positive: read, never set
	TestSet  int // positive: set in dead_test.go only
	Keyed    int // clean: key in a composite literal
	Assigned int // clean: left side of an assignment
	Counted  int // clean: operand of ++
	Addr     int // clean: operand of &
	Wire     int `json:"wire"` // clean: encoding/json sets it
	Allowed  int //uavdc:allow deadexport fixture: deliberate keep
}

// Pair is set by an unkeyed literal.
type Pair struct {
	A, B int // clean: positions in an unkeyed literal
}

// Config is the default rule's fixture: an assignment inside an if that
// compares the same field with a constant gives the field its default
// and is no setter.
type Config struct {
	Window int // positive: only given its default
	Size   int // clean: given its default, and set by sized
	Peak   int // clean: raised to a running maximum, not defaulted
}

// sized sets Size, then gives both it and Window their defaults.
func sized(n int) *Config {
	c := &Config{Size: n}
	if c.Window <= 0 {
		c.Window = 600
	}
	if c.Size <= 0 {
		c.Size = 64
	}
	if n > c.Peak {
		c.Peak = n
	}
	return c
}
