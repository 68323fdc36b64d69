package mincut
