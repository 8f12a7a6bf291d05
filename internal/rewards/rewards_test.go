package rewards

import (
	"math"
	"strings"
	"testing"
)

func TestEthereumUncleSchedule(t *testing.T) {
	s := Ethereum()
	tests := []struct {
		distance int
		want     float64
	}{
		{1, 7.0 / 8},
		{2, 6.0 / 8},
		{3, 5.0 / 8},
		{4, 4.0 / 8},
		{5, 3.0 / 8},
		{6, 2.0 / 8},
		{7, 0},
		{0, 0},
		{-1, 0},
		{100, 0},
	}
	for _, tt := range tests {
		if got := s.Uncle(tt.distance); got != tt.want {
			t.Errorf("Uncle(%d) = %v, want %v", tt.distance, got, tt.want)
		}
	}
}

func TestEthereumNephewSchedule(t *testing.T) {
	s := Ethereum()
	for l := 1; l <= 6; l++ {
		if got := s.Nephew(l); got != 1.0/32 {
			t.Errorf("Nephew(%d) = %v, want 1/32", l, got)
		}
	}
	for _, l := range []int{0, 7, 50} {
		if got := s.Nephew(l); got != 0 {
			t.Errorf("Nephew(%d) = %v, want 0 (not referenceable)", l, got)
		}
	}
}

func TestEthereumReferenceable(t *testing.T) {
	s := Ethereum()
	for l := 1; l <= 6; l++ {
		if !s.Referenceable(l) {
			t.Errorf("Referenceable(%d) = false, want true", l)
		}
	}
	for _, l := range []int{0, -3, 7} {
		if s.Referenceable(l) {
			t.Errorf("Referenceable(%d) = true, want false", l)
		}
	}
	if s.MaxDepth() != 6 {
		t.Errorf("MaxDepth = %d, want 6", s.MaxDepth())
	}
}

func TestConstantSchedule(t *testing.T) {
	s, err := Constant(0.5, NoDepthLimit)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{1, 6, 7, 1000} {
		if got := s.Uncle(l); got != 0.5 {
			t.Errorf("Uncle(%d) = %v, want 0.5", l, got)
		}
		if got := s.Nephew(l); got != 1.0/32 {
			t.Errorf("Nephew(%d) = %v, want 1/32", l, got)
		}
	}
	if s.Uncle(0) != 0 {
		t.Error("Uncle(0) should be 0")
	}
}

func TestConstantDepthLimited(t *testing.T) {
	s, err := Constant(0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Uncle(6); got != 0.5 {
		t.Errorf("Uncle(6) = %v, want 0.5", got)
	}
	if got := s.Uncle(7); got != 0 {
		t.Errorf("Uncle(7) = %v, want 0", got)
	}
	if got := s.Nephew(7); got != 0 {
		t.Errorf("Nephew(7) = %v, want 0", got)
	}
}

func TestConstantRejectsNegative(t *testing.T) {
	if _, err := Constant(-0.1, 6); err == nil {
		t.Error("Constant(-0.1) should fail")
	}
}

func TestBitcoinScheduleIsZero(t *testing.T) {
	s := Bitcoin()
	for l := 1; l <= s.MaxDepth(); l++ {
		if s.Uncle(l) != 0 || s.Nephew(l) != 0 {
			t.Errorf("Bitcoin schedule pays at distance %d", l)
		}
	}
	if e := Ethereum(); e.Uncle(1) == 0 || e.Nephew(1) == 0 {
		t.Error("Ethereum schedule pays nothing at distance 1")
	}
}

func TestNewScheduleValidation(t *testing.T) {
	ok := func(int) float64 { return 0.25 }
	tests := []struct {
		name     string
		uncle    func(int) float64
		nephew   func(int) float64
		maxDepth int
		wantErr  bool
	}{
		{"valid", ok, ok, 6, false},
		{"nil uncle", nil, ok, 6, true},
		{"nil nephew", ok, nil, 6, true},
		{"zero depth", ok, ok, 0, true},
		{"negative uncle", func(int) float64 { return -1 }, ok, 6, true},
		{"nan nephew", ok, func(int) float64 { return math.NaN() }, 6, true},
		{"inf uncle", func(int) float64 { return math.Inf(1) }, ok, 6, true},
		{"unbounded ok", ok, ok, NoDepthLimit, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSchedule(tt.name, tt.uncle, tt.nephew, tt.maxDepth)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewScheduleBadValueBeyondDepthAccepted(t *testing.T) {
	// A function misbehaving only beyond maxDepth is fine: those
	// distances are never consulted.
	uncle := func(l int) float64 {
		if l > 3 {
			return math.NaN()
		}
		return 0.5
	}
	s, err := NewSchedule("partial", uncle, func(int) float64 { return 0 }, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Uncle(5); got != 0 {
		t.Errorf("Uncle(5) = %v, want 0", got)
	}
}

func TestScheduleString(t *testing.T) {
	s := Ethereum()
	if got := s.String(); !strings.Contains(got, "ethereum") {
		t.Errorf("String() = %q, want it to mention the schedule name", got)
	}
	if Ethereum().Name() != "ethereum" {
		t.Errorf("Name() = %q", Ethereum().Name())
	}
}

func TestPaperKuMonotone(t *testing.T) {
	// Eq. (7): Ku decreases with distance, from 7/8 to 2/8.
	s := Ethereum()
	for l := 1; l < 6; l++ {
		if s.Uncle(l) <= s.Uncle(l+1) {
			t.Errorf("Ku(%d)=%v should exceed Ku(%d)=%v",
				l, s.Uncle(l), l+1, s.Uncle(l+1))
		}
	}
	if s.Uncle(1) != 7.0/8 || s.Uncle(6) != 2.0/8 {
		t.Error("Ku endpoints do not match Eq. (7)")
	}
}
