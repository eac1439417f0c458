package sim

// Version stamps the simulator's modelled semantics.  Bump it whenever a
// change can alter simulation results (timing, protocol, statistics) —
// the sweep engine folds this stamp into its content-addressed cache keys,
// so bumping it is what invalidates every cached experiment point.  Pure
// refactors, new telemetry and faster code that produces identical numbers
// must NOT bump it: that is exactly the case the cache exists for.
const Version = "dsre-sim/v3"
