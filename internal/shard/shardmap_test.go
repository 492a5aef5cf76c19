package shard

import (
	"strings"
	"testing"
)

func mustMap(t *testing.T, shards []*Shard, def *Shard) *Map {
	t.Helper()
	m, err := NewMap(shards, def)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return m
}

func TestParseMapRoundTrip(t *testing.T) {
	conf := `
# carved shards
shard s0 127.0.0.1:4001 ou=u1,o=org0;ou=u2,o=org0
shard s1 127.0.0.1:4002 ou=lab net 4,o=org0

default rest 127.0.0.1:4000
`
	m, err := parseMap(strings.NewReader(conf))
	if err != nil {
		t.Fatalf("ParseMap: %v", err)
	}
	if len(m.Shards) != 2 || m.Default == nil {
		t.Fatalf("parsed %d shards, default=%v", len(m.Shards), m.Default)
	}
	if got := m.Shards[1].Roots; len(got) != 1 || got[0] != "ou=lab net 4,o=org0" {
		t.Fatalf("spaced root mangled: %q", got)
	}
	// Render must parse back to the same map (the SHARDMAP contract).
	again, err := parseMap(strings.NewReader(strings.Join(m.Render(), "\n") + "\n"))
	if err != nil {
		t.Fatalf("re-parse rendered map: %v", err)
	}
	if strings.Join(again.Render(), "\n") != strings.Join(m.Render(), "\n") {
		t.Fatalf("render not stable:\n%v\nvs\n%v", m.Render(), again.Render())
	}
}

func TestParseMapRejects(t *testing.T) {
	cases := []struct {
		name, conf, want string
	}{
		{"unknown directive", "frob s0 127.0.0.1:1 o=x\n", "unknown directive"},
		{"missing roots", "shard s0 127.0.0.1:1\n", "needs"},
		{"duplicate default", "default a 127.0.0.1:1\ndefault b 127.0.0.1:2\n", "duplicate default"},
		{"duplicate name", "shard a 127.0.0.1:1 o=x\ndefault a 127.0.0.1:2\n", "duplicate shard name"},
		{"duplicate root", "shard a 127.0.0.1:1 o=x\nshard b 127.0.0.1:2 o=x\n", "owned by both"},
		{"nested roots", "shard a 127.0.0.1:1 o=x\nshard b 127.0.0.1:2 ou=y,o=x\n", "inside root"},
		{"empty", "\n", "no shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseMap(strings.NewReader(tc.conf))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}

func TestOwnerSpineHolders(t *testing.T) {
	s0 := &Shard{Name: "s0", Addr: "a0", Roots: []string{"ou=u1,o=org0"}}
	s1 := &Shard{Name: "s1", Addr: "a1", Roots: []string{"ou=u2,ou=hq,o=org0"}}
	def := &Shard{Name: "rest", Addr: "a2"}
	m := mustMap(t, []*Shard{s0, s1}, def)

	if got := m.Spine(); len(got) != 2 || got[0] != "o=org0" || got[1] != "ou=hq,o=org0" {
		t.Fatalf("spine = %v", got)
	}
	for dn, want := range map[string]*Shard{
		"ou=u1,o=org0":        s0,
		"uid=p9,ou=u1,o=org0": s0,
		"ou=u2,ou=hq,o=org0":  s1,
		"ou=hq,o=org0":        def, // spine entry: owned (real copy) by the default shard
		"o=org0":              def,
		"uid=p1,o=org0":       def,
		"ou=u10,o=org0":       def, // prefix of a root's RDN is not containment
		"o=elsewhere":         def,
	} {
		if got := m.Owner(dn); got != want {
			t.Errorf("Owner(%q) = %v, want %v", dn, got, want)
		}
	}
	if !m.isSpine("o=org0") || !m.isSpine("ou=hq,o=org0") || m.isSpine("ou=u1,o=org0") {
		t.Fatalf("IsSpine misclassifies")
	}
	if sh := m.rootShard("ou=u1,o=org0"); sh != s0 {
		t.Fatalf("RootShard = %v", sh)
	}
	// o=org0 is above both carved roots: held by s0, s1 and the default.
	hs := m.Holders("o=org0")
	if len(hs) != 3 || hs[0] != s0 || hs[1] != s1 || hs[2] != def {
		t.Fatalf("Holders(o=org0) = %v", names(hs))
	}
	// ou=hq,o=org0 is only above s1's root.
	hs = m.Holders("ou=hq,o=org0")
	if len(hs) != 2 || hs[0] != s1 || hs[1] != def {
		t.Fatalf("Holders(ou=hq) = %v", names(hs))
	}
	// Non-spine DN: just the owner.
	hs = m.Holders("uid=p9,ou=u1,o=org0")
	if len(hs) != 1 || hs[0] != s0 {
		t.Fatalf("Holders(non-spine) = %v", names(hs))
	}

	// Without a default shard, spine and outside DNs are unroutable.
	m2 := mustMap(t, []*Shard{{Name: "s0", Addr: "a0", Roots: []string{"ou=u1,o=org0"}}}, nil)
	if m2.Owner("o=org0") != nil || m2.Owner("o=elsewhere") != nil {
		t.Fatalf("no-default map should leave spine/outside DNs unowned")
	}
	if hs := m2.Holders("o=org0"); len(hs) != 1 || hs[0].Name != "s0" {
		t.Fatalf("no-default Holders = %v", names(hs))
	}
}

func names(hs []*Shard) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Name
	}
	return out
}

func TestCompareDNHierarchical(t *testing.T) {
	dns := []string{
		"uid=p2,ou=u1,o=org0",
		"o=org0",
		"ou=u10,o=org0",
		"ou=u1,o=org0",
		"uid=p1,ou=u1,o=org0",
		"ou=u2,o=org0",
		"uid=zz,ou=u10,o=org0",
	}
	sortDNs(dns)
	want := []string{
		"o=org0",
		"ou=u1,o=org0",
		"uid=p1,ou=u1,o=org0",
		"uid=p2,ou=u1,o=org0",
		"ou=u10,o=org0",
		"uid=zz,ou=u10,o=org0",
		"ou=u2,o=org0",
	}
	for i := range want {
		if dns[i] != want[i] {
			t.Fatalf("canonical order:\n got %v\nwant %v", dns, want)
		}
	}
	// Ancestors always sort before descendants: subtrees are contiguous.
	if compareDN("o=org0", "uid=deep,ou=a,ou=b,o=org0") >= 0 {
		t.Fatal("ancestor must sort before descendant")
	}
	if underDN("ou=u10,o=org0", "ou=u1,o=org0") {
		t.Fatal("RDN prefix is not subtree containment")
	}
}

func TestProperAncestors(t *testing.T) {
	got := properAncestors("uid=p,ou=u,o=org0")
	if len(got) != 2 || got[0] != "ou=u,o=org0" || got[1] != "o=org0" {
		t.Fatalf("ProperAncestors = %v", got)
	}
	if got := properAncestors("o=org0"); len(got) != 0 {
		t.Fatalf("root has ancestors: %v", got)
	}
}
