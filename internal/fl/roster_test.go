package fl

import (
	"errors"
	"strings"
	"testing"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/wire"
)

// roster lays peers out as a ModelDown carries them.
func roster(peers ...secagg.Peer) wire.Pairs {
	var r wire.Pairs
	for _, p := range peers {
		r.Append(p.Device, p.Pub)
	}
	return r
}

// rosterFrame encodes a ModelDown payload (round 0, no model, degree 2)
// whose roster is the given counts (int) and length-prefixed strings,
// verbatim.
func rosterFrame(roster ...any) []byte {
	w := wire.NewWriter()
	for _, v := range []uint64{0, 0, 0, 0} { // round, views, sealed, plan
		w.Uvarint(v)
	}
	for _, v := range roster {
		switch v := v.(type) {
		case int:
			w.Uvarint(uint64(v))
		case string:
			w.String(v)
		}
	}
	for _, v := range []uint64{0, 0, 2} { // version, trace, mask degree
		w.Uvarint(v)
	}
	return w.Bytes()
}

// TestHostileRosterRefused: a masked client handed a roster it cannot
// mask over — malformed on the wire, or naming a device twice, or not
// naming the client exactly once — ends the session with the error of
// that fault, and derives no mask: nothing but the handshake reaches
// the server.
func TestHostileRosterRefused(t *testing.T) {
	pub := strings.Repeat("p", 32)
	truncated := rosterFrame(2, "victim", pub, "peer", pub)
	truncated = truncated[:len(truncated)-3-10] // ends inside the last pub
	for _, c := range []struct {
		name string
		// frame is the ModelDown payload; nil sends cohort, every
		// member with the same pub, in a well-formed ModelDown.
		frame  []byte
		cohort []string
		want   func(error) bool
	}{
		{name: "truncated entry", frame: truncated, want: isDecode},
		{name: "count beyond payload", frame: rosterFrame(200, "victim", pub), want: isDecode},
		{name: "empty name", frame: rosterFrame(2, "victim", pub, "", pub), want: isDecode},
		{name: "duplicate name", cohort: []string{"victim", "peer", "peer"}, want: isDuplicate},
		{name: "without the client", cohort: []string{"peer", "other"}, want: notInCohort},
		{name: "client named twice", cohort: []string{"victim", "peer", "victim"}, want: isDuplicate},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, cc := Pipe()
			client := NewClient(cc, newTestTrainer("victim", false, 2))
			clientErr := make(chan error, 1)
			go func() {
				defer cc.Close()
				clientErr <- client.Run()
			}()
			if err := sc.Send(&Challenge{Nonce: make([]byte, 16), SecAgg: true}); err != nil {
				t.Fatal(err)
			}
			msg, err := sc.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if att, ok := msg.(*Attest); !ok || len(att.MaskPub) == 0 {
				t.Fatalf("handshake answer = %#v, want an Attest with a mask key", msg)
			}
			if c.frame != nil {
				err = sc.SendFrame(MsgModelDown, c.frame)
			} else {
				var cohort wire.Pairs
				for _, d := range c.cohort {
					cohort.Append(d, []byte(pub))
				}
				err = sc.Send(&ModelDown{Round: 0, Plain: newState(1), Cohort: cohort, MaskDegree: 2})
			}
			if err != nil {
				t.Fatal(err)
			}
			for {
				msg, err := sc.Recv()
				if err != nil {
					break
				}
				t.Errorf("client answered a hostile roster with %T", msg)
			}
			if err := <-clientErr; !c.want(err) {
				t.Fatalf("client err = %v", err)
			}
		})
	}
}

func isDecode(err error) bool    { return errors.Is(err, ErrDecode) }
func isDuplicate(err error) bool { return errors.Is(err, secagg.ErrDuplicateDevice) }
func notInCohort(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not in the cohort")
}

// TestOpenMaskedRefusesDuplicateDevice: the server derives the round's
// graph through the same derivation as its clients, so a roster naming
// one device twice fails the round open with the same sentinel, before
// any ModelDown leaves.
func TestOpenMaskedRefusesDuplicateDevice(t *testing.T) {
	srv := NewServer(newState(0), ServerConfig{Rounds: 1, SecAgg: true})
	rd := &syncRound{pending: map[*session]bool{}, frames: map[wire.Codec][]byte{}}
	for _, d := range []string{"twin", "other", "twin"} {
		rd.sampled = append(rd.sampled, &session{device: d, maskPub: make([]byte, 32)})
	}
	if _, err := srv.openMasked(rd); !errors.Is(err, secagg.ErrDuplicateDevice) {
		t.Fatalf("openMasked err = %v, want ErrDuplicateDevice", err)
	}
}
