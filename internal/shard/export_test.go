package shard

import "repro/internal/engine"

// ForceScatter sets noDecline on e, which must be an *Engine: every plan
// scatters, including those the cost model would run on the unsharded
// parent store. It exists so the external conformance tests can keep the
// scatter path covered on fixtures small enough to be declined.
func ForceScatter(e engine.Engine) { e.(*Engine).noDecline = true }
