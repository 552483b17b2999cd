package chunk

import (
	"errors"
	"testing"

	"forkbase/internal/hash"
)

func TestNewAndAccessors(t *testing.T) {
	c := New(TypeBlobLeaf, []byte("payload"))
	if c.Type() != TypeBlobLeaf {
		t.Fatalf("type = %v", c.Type())
	}
	if string(c.Data()) != "payload" {
		t.Fatalf("data = %q", c.Data())
	}
	if c.Size() != 1+7 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.ID().IsZero() {
		t.Fatal("zero id")
	}
}

func TestIDIncludesType(t *testing.T) {
	a := New(TypeBlobLeaf, []byte("same"))
	b := New(TypeMapLeaf, []byte("same"))
	if a.ID() == b.ID() {
		t.Fatal("different types share an id")
	}
}

func TestIDMatchesManualHash(t *testing.T) {
	c := New(TypeFNode, []byte("abc"))
	want := hash.Of(append([]byte{byte(TypeFNode)}, []byte("abc")...))
	if c.ID() != want {
		t.Fatal("id does not equal hash of encoding")
	}
}

func TestVerify(t *testing.T) {
	c := New(TypeCellar, []byte("v"))
	if err := c.Verify(c.ID()); err != nil {
		t.Fatalf("self-verify failed: %v", err)
	}
	other := New(TypeCellar, []byte("w"))
	if err := c.Verify(other.ID()); err == nil {
		t.Fatal("verify against wrong id succeeded")
	}
}

func TestTypeStringAndValid(t *testing.T) {
	for typ := TypeBlobLeaf; typ < maxType; typ++ {
		if !typ.Valid() {
			t.Fatalf("type %d invalid", typ)
		}
		if typ.String() == "" || typ.String()[0] == 'i' {
			t.Fatalf("type %d has bad name %q", typ, typ.String())
		}
	}
	if TypeInvalid.Valid() || Type(200).Valid() {
		t.Fatal("invalid types report valid")
	}
}

func TestNewPanicsOnInvalidType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(TypeInvalid) did not panic")
		}
	}()
	New(TypeInvalid, nil)
}

func TestNewPrehashedTrusted(t *testing.T) {
	ref := New(TypeBlobLeaf, []byte("payload"))
	var id hash.Hash
	prov := HashEncoding(&id, []byte("\x01payload"))
	c := NewPrehashed(TypeBlobLeaf, []byte("payload"), id, prov)
	if c.ID() != ref.ID() || c.Type() != ref.Type() {
		t.Fatal("prehashed chunk differs from New")
	}
	if c.Claimed() {
		t.Fatal("prehashed chunk reports claimed")
	}
	if err := c.Recheck(); err != nil {
		t.Fatalf("trusted chunk failed recheck: %v", err)
	}
}

func TestNewPrehashedRejectsForgedProvenance(t *testing.T) {
	honest := New(TypeBlobLeaf, []byte("payload"))

	// The zero Provenance — the only value other packages can construct —
	// covers nothing, even when the id it accompanies is correct.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewPrehashed with zero provenance did not panic")
			}
		}()
		NewPrehashed(TypeBlobLeaf, []byte("payload"), honest.ID(), Provenance{})
	}()

	// A genuine token covers only the id it was minted for: replaying it
	// against a different id panics too.
	var otherID hash.Hash
	prov := HashEncoding(&otherID, []byte("\x01other"))
	defer func() {
		if recover() == nil {
			t.Fatal("NewPrehashed with replayed provenance did not panic")
		}
	}()
	NewPrehashed(TypeBlobLeaf, []byte("payload"), honest.ID(), prov)
}

func TestRecheckPromotesClaimed(t *testing.T) {
	honest := New(TypeBlobLeaf, []byte("payload"))
	c := NewClaimed(TypeBlobLeaf, []byte("payload"), honest.ID())
	if !c.Claimed() {
		t.Fatal("fresh claimed chunk not claimed")
	}
	before := hash.Digests()
	if err := c.Recheck(); err != nil {
		t.Fatalf("recheck: %v", err)
	}
	if c.Claimed() {
		t.Fatal("recheck did not promote the chunk to trusted")
	}
	if err := c.Recheck(); err != nil {
		t.Fatalf("second recheck: %v", err)
	}
	if got := hash.Digests() - before; got != 1 {
		t.Fatalf("two rechecks cost %d hashes, want 1 (promotion)", got)
	}
}

func TestNewClaimedRecheck(t *testing.T) {
	honest := New(TypeBlobLeaf, []byte("payload"))
	ok := NewClaimed(TypeBlobLeaf, []byte("payload"), honest.ID())
	if err := ok.Recheck(); err != nil {
		t.Fatalf("honest claim rejected: %v", err)
	}
	forged := NewClaimed(TypeBlobLeaf, []byte("evil"), honest.ID())
	if err := forged.Recheck(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged claim recheck = %v, want ErrCorrupt", err)
	}
	// The claimed type participates in the hash: same payload under a
	// different type tag is a forgery too.
	wrongType := NewClaimed(TypeMapLeaf, []byte("payload"), honest.ID())
	if err := wrongType.Recheck(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong-type claim recheck = %v, want ErrCorrupt", err)
	}
}
