package mst
