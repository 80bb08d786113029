package fault

import (
	"errors"
	"reflect"
	"testing"

	"logicallog/internal/wal"
)

func TestTokenRoundTrip(t *testing.T) {
	cases := [][]Point{
		nil,
		{{Chan: ChanWAL, Index: 17, Kind: KindTorn, Arg: 3}},
		{{Chan: ChanWAL, Index: 0, Kind: KindCrash}},
		{{Chan: ChanStable, Index: 4, Kind: KindTransient, Arg: 1}},
		{{Chan: ChanStable, Index: 4, Kind: KindTransient, Arg: 2}},
		{{Chan: ChanWAL, Index: 9, Kind: KindBitFlip, Arg: 1234}},
		{{Chan: ChanWAL, Index: 2, Kind: KindReorder, Arg: 1}},
		{
			{Chan: ChanWAL, Index: 5, Kind: KindTransient, Arg: 3},
			{Chan: ChanStable, Index: 0, Kind: KindCrash},
			{Chan: ChanWAL, Index: 12, Kind: KindTorn, Arg: 64},
		},
	}
	for _, pts := range cases {
		tok := NewPlan(pts...).Token()
		back, err := ParseToken(tok)
		if err != nil {
			t.Fatalf("ParseToken(%q): %v", tok, err)
		}
		tok2 := NewPlan(back...).Token()
		if tok != tok2 {
			t.Errorf("round trip: %q -> %q", tok, tok2)
		}
		if len(back) != len(pts) {
			t.Errorf("token %q: %d points back, want %d", tok, len(back), len(pts))
		}
	}
	if tok := NewPlan().Token(); tok != "none" {
		t.Errorf("empty plan token = %q", tok)
	}
	if pts, err := ParseToken("none"); err != nil || len(pts) != 0 {
		t.Errorf("ParseToken(none) = %v, %v", pts, err)
	}
	for _, bad := range []string{"wal", "wal@x:crash", "disk@1:crash", "wal@1:melt", "wal@1:torn", "wal@-1:crash"} {
		if _, err := ParseToken(bad); err == nil {
			t.Errorf("ParseToken(%q) accepted", bad)
		}
	}
}

func TestStreamTokenSyntax(t *testing.T) {
	// The WAL has one append lane, so there is no stream-merge channel: a
	// token naming it fails to parse instead of replaying some other fault.
	for _, tok := range []string{"stream@2:crash", "walstream@2:crash"} {
		if pts, err := ParseToken(tok); err == nil {
			t.Errorf("ParseToken(%q) = %v, want an unknown-channel error", tok, pts)
		}
	}
}

func TestTransientReArmsForConsecutiveFailures(t *testing.T) {
	p := NewPlan(Point{Chan: ChanStable, Index: 1, Kind: KindTransient, Arg: 3})
	probe := p.StableProbe()
	if err := probe(); err != nil {
		t.Fatalf("I/O 0: %v", err)
	}
	for i := 1; i <= 3; i++ {
		err := probe()
		var te *TransientError
		if !errors.As(err, &te) {
			t.Fatalf("I/O %d: %v, want transient", i, err)
		}
	}
	if err := probe(); err != nil {
		t.Fatalf("I/O 4 after transients drained: %v", err)
	}
	if p.Dead() {
		t.Error("transient faults must not kill the plan")
	}
	if got := p.Count(ChanStable); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
}

func TestTerminalFaultKillsPlanUntilHealed(t *testing.T) {
	p := NewPlan(Point{Chan: ChanStable, Index: 0, Kind: KindCrash})
	probe := p.StableProbe()
	if err := probe(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed I/O: %v", err)
	}
	if !p.Dead() {
		t.Fatal("plan must be dead after a terminal fault")
	}
	countAtDeath := p.Count(ChanStable)
	if err := probe(); !errors.Is(err, ErrInjected) {
		t.Fatalf("dead plan I/O: %v", err)
	}
	if p.Count(ChanStable) != countAtDeath {
		t.Error("dead-plan I/Os must not advance counts")
	}
	p.Heal()
	if err := probe(); err != nil {
		t.Fatalf("post-heal I/O: %v", err)
	}
	if fired := p.Fired(); len(fired) != 1 || fired[0].Kind != KindCrash {
		t.Errorf("Fired = %v", fired)
	}
}

func TestHealDisarmsUnfiredPoints(t *testing.T) {
	p := NewPlan(
		Point{Chan: ChanStable, Index: 0, Kind: KindCrash},
		Point{Chan: ChanStable, Index: 5, Kind: KindCrash},
	)
	probe := p.StableProbe()
	if err := probe(); !errors.Is(err, ErrInjected) {
		t.Fatal("first point did not fire")
	}
	if un := p.Unfired(); len(un) != 1 || un[0].Index != 5 {
		t.Fatalf("Unfired = %v", un)
	}
	p.Heal()
	if un := p.Unfired(); len(un) != 0 {
		t.Fatalf("Unfired after heal = %v", un)
	}
	for i := 0; i < 10; i++ {
		if err := probe(); err != nil {
			t.Fatalf("healed I/O %d: %v", i, err)
		}
	}
}

func TestDeviceReadsPassThroughWhenDead(t *testing.T) {
	p := NewPlan(Point{Chan: ChanWAL, Index: 1, Kind: KindCrash})
	dev := p.WrapDevice(wal.NewMemDevice())
	if err := dev.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Append([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append = %v", err)
	}
	data, err := dev.ReadAll()
	if err != nil || string(data) != "hello" {
		t.Errorf("ReadAll on dead device = %q, %v", data, err)
	}
	if _, err := dev.Size(); err != nil {
		t.Errorf("Size on dead device: %v", err)
	}
	if err := dev.Append([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("append on dead device = %v", err)
	}
	if err := dev.Rewrite(nil); !errors.Is(err, ErrInjected) {
		t.Errorf("rewrite on dead device = %v", err)
	}
}

func TestFromSeedDeterministicAndReplayable(t *testing.T) {
	a := FromSeed(42, 100, 50)
	b := FromSeed(42, 100, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("FromSeed not deterministic: %v vs %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("FromSeed produced no points")
	}
	tok := NewPlan(a...).Token()
	back, err := ParseToken(tok)
	if err != nil {
		t.Fatalf("seed schedule token %q: %v", tok, err)
	}
	if NewPlan(back...).Token() != tok {
		t.Errorf("seed schedule not token-replayable: %q", tok)
	}
	if FromSeed(7, 0, 0) != nil {
		t.Error("no boundaries must yield no points")
	}
}
