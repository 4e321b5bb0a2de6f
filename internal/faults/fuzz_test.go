package faults

import (
	"reflect"
	"testing"
)

// FuzzFaultSchedule hardens the -faults spec parser and schedule
// application: arbitrary input must either be rejected with an error or
// produce a valid schedule that (1) canonicalises to a fixed point,
// (2) round-trips through Parse∘String unchanged, and (3) answers every
// query with finite, well-formed values — never a panic.
func FuzzFaultSchedule(f *testing.F) {
	f.Add("")
	f.Add(DefaultSpec)
	f.Add("wind:legs=2-5,factor=1.3;upfail:stop=3,sensor=7")
	f.Add("rand:seed=9,n=8,severity=0.5,side=200")
	f.Add("nohover:x=120,y=80,r=40;dropout:after=3,sensor=2")
	f.Add("wind:legs=1e9,factor=-0")
	f.Add(";;;")
	f.Add("wind:legs=0-,factor=1.7976931348623157e308")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid schedule: %v", err)
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", canon, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the schedule: %q vs %q", canon, s2.String())
		}
		if canon != s2.String() {
			t.Fatalf("String not a fixed point: %q vs %q", canon, s2.String())
		}
		// Schedule application must be total and sane on any index.
		for _, i := range []int{0, 1, 7, 1 << 20} {
			if f := s.LegFactor(i); !(f > 0) {
				t.Fatalf("LegFactor(%d) = %v", i, f)
			}
			if f := s.HoverFactor(i); !(f > 0) {
				t.Fatalf("HoverFactor(%d) = %v", i, f)
			}
			if f := s.UploadFactor(i, i%64); f < 0 {
				t.Fatalf("UploadFactor(%d) = %v", i, f)
			}
		}
		if s.MaxLegFactor() < 1 {
			t.Fatal("worst-case factor below 1")
		}
	})
}
