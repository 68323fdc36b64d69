package cluster

const initRoute = "pr-init"

func expandFrontierForTest() {}
