package core

// CheckDerivations exposes the derivation checker to package core_test,
// whose tests feed it the workload package's schemas.
var CheckDerivations = checkDerivations
