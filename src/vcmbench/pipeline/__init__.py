"""Anchor-generation pipeline: scaling, padding, codec invocation, and
end-to-end experiment runs producing RD curves."""
