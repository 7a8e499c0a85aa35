"""Embedding-space training and inference for composed image retrieval.

Frozen, pluggable encoder stand-ins plus two trainable token mappers: one
turns an image embedding into a pseudo-word token, the other turns a caption
embedding into a complementary token. Training runs contrastive objectives
over in-batch negatives with a confusable-pair subset mined per batch;
inference mixes both tokens into a two-slot prompt and ranks a gallery by
cosine.
"""
