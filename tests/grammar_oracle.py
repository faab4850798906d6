"""The synth tests' reference generator and grammar checker.

Neither is part of geckit: the generator draws sentences one seed at a
time, and the checker states the agreement rules that every generated
sentence must satisfy.
"""

import numpy as np

from geckit.synth import _sample_sentence


def gen_corpus(grammar, n, seed):
    """n sentences of the grammar; item i depends only on (seed, i)."""
    return [_sample_sentence(grammar, np.random.default_rng([seed, i])) for i in range(n)]


def is_valid(grammar, sentence):
    """Check a sentence against the grammar's agreement rules.

    Every token must be generable, punctuation must be final only,
    each verb must agree with the nearest noun to its left, each
    noun must directly follow a determiner, and each determiner
    must agree with the nearest noun to its right.
    """
    tokens = sentence.tokens
    if not tokens:
        return False
    punct = set(grammar.punctuation)
    if tokens[-1] not in punct or any(t in punct for t in tokens[:-1]):
        return False
    if any(t not in grammar.vocabulary for t in tokens):
        return False
    # Number 0 is singular and 1 plural, the order of each (singular, plural) pair.
    noun_number = {form: number for pair in grammar.nouns for number, form in enumerate(pair)}
    verb_number = {form: number for pair in grammar.verbs for number, form in enumerate(pair)}
    determiner_numbers = {}
    for number, determiners in enumerate((grammar.determiners_sg, grammar.determiners_pl)):
        for det in determiners:
            determiner_numbers.setdefault(det, set()).add(number)
    noun_positions = [i for i, t in enumerate(tokens) if t in noun_number]
    for i, token in enumerate(tokens):
        if token in verb_number:
            left = [p for p in noun_positions if p < i]
            if not left or noun_number[tokens[left[-1]]] != verb_number[token]:
                return False
        if token in noun_number:
            if i == 0 or tokens[i - 1] not in determiner_numbers:
                return False
        numbers = determiner_numbers.get(token)
        if numbers is not None:
            right = [p for p in noun_positions if p > i]
            if not right or noun_number[tokens[right[0]]] not in numbers:
                return False
    return True
