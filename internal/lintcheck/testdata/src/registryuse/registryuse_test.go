// Test files are exempt from the policy-table contract: the loader feeds
// analyzers only non-test GoFiles, so a test may construct policies
// directly. Nothing in this file produces a finding.
package registryuse

import "hercules/internal/fleet"

func helperForTests() fleet.Router {
	return fleet.StaticRouter{Fixed: 9}
}
