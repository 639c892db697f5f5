package planprt

import "testing"

// TestSignatureRidesCompileCache pins that the channel-interface
// signature is part of the cached front-end: a cache hit returns the
// identical artifact, not a re-extraction.
func TestSignatureRidesCompileCache(t *testing.T) {
	ResetCache()
	cfg := Config{Engine: EngineInterp, Verify: VerifySingleNode}
	p1, err := Load(balancer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Load(balancer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := CacheStats(); hits != 1 {
		t.Fatalf("second load should hit the cache, got %d hits", hits)
	}
	s1, s2 := p1.Signature(), p2.Signature()
	if s1 == nil || len(s1.Channels) == 0 {
		t.Fatal("loaded program has no signature")
	}
	if s1 != s2 {
		t.Error("cache hit must share the extracted signature, not rebuild it")
	}
	for _, ch := range s1.Channels {
		if ch.Packet == "" || !ch.Pos.IsValid() {
			t.Errorf("channel %s: incomplete signature entry %+v", ch.Name, ch)
		}
	}
}

// BenchmarkLoadSignature gates the cost of signature extraction on the
// hot path: a cached Load plus a Signature access. Extraction happens
// once at compile time, so this must run at the same speed as a plain
// cached Load (pointer reads only).
func BenchmarkLoadSignature(b *testing.B) {
	ResetCache()
	cfg := Config{Engine: EngineInterp, Verify: VerifySingleNode}
	if _, err := Load(balancer, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Load(balancer, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if sig := p.Signature(); sig == nil || len(sig.Channels) == 0 {
			b.Fatal("missing signature on cached load")
		}
	}
}
