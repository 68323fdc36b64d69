package server

func (c *cache) purgeKey(key string) {} // want

type cache struct{}
