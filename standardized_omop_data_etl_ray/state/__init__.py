"""Durable state: lake manifests, lineage, bloom sidecars."""
