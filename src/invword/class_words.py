r"""Stored class words for the stored pairs of the constructor.

CLASS_WORDS maps (n, q, companion(f).to_text()), for each class of SL(2,2),
SL(3,2) and SL(3,4) whose characteristic polynomial f has degree n and is
irreducible, to the minimal word that the class-graph search
brute_force_witness(companion(f), SL(n, q)) returns: a pair (steps, target)
with steps a tuple of (conjugator text, exponent) and target the text of
the product.  These are the 9 classes that neither the 2x2 rule nor the
restart reaches at their exact distance; the constructor keys an input g
by companion(charpoly(g)).  The order-3 class of SL(2,2) reaches no
involution; its entry is (the Unreachable message, the certificate)
instead.

Matrices are in the row text form of Mat.to_text.  The table equals
constructor.class_word_table(), which recomputes it with the oracle,
entries in the same order.  A step's conjugator carries g to a class
member through the transporters of the oracle's class table, so the
conjugator texts follow the oracle's generator list; the targets, the
lengths and the exponents do not.  Run from the repository root, this
rewrites the table from class_word_table():

PYTHONPATH=src python -c "import pathlib; from invword.constructor import class_word_table; p = pathlib.Path('src/invword/class_words.py'); head = p.read_text().rpartition('CLASS_WORDS = {')[0]; p.write_text(head + 'CLASS_WORDS = {\n' + ''.join('    %r:\n        %r,\n' % kv for kv in class_word_table().items()) + '}\n')"
"""

CLASS_WORDS = {
    (2, 2, '0,1;1,1'):
        ('closure of the class contains no involution', {'group_order': 6, 'classes_in_closure': 2, 'closure_size': 3, 'levels_explored': 2, 'involution_classes_in_group': 1}),
    (3, 2, '0,0,1;1,0,1;0,1,0'):
        ((('1,1,0;1,0,1;1,1,1', -1), ('1,0,0;1,1,1;1,1,0', -1)), '0,1,0;1,0,0;1,1,1'),
    (3, 2, '0,0,1;1,0,0;0,1,1'):
        ((('0,0,1;1,1,0;0,1,1', 1), ('1,0,1;1,0,0;0,1,0', 1)), '0,1,0;1,0,0;1,1,1'),
    (3, 4, '0,0,1;1,0,1;0,1,0'):
        ((('1,1,0;1,0,1;1,1,1', -1), ('1,0,0;1,1,1;1,1,0', -1)), '0,1,0;1,0,0;1,1,1'),
    (3, 4, '0,0,1;1,0,2;0,1,0'):
        ((('1,0,1;0,0,1;0,1,1', 1), ('1,0,1;2,3,0;0,1,1', 1)), '2,2,0;1,2,0;3,2,1'),
    (3, 4, '0,0,1;1,0,3;0,1,0'):
        ((('1,0,1;0,0,1;0,1,1', 1), ('1,0,1;3,2,0;0,1,1', 1)), '3,3,0;1,3,0;2,3,1'),
    (3, 4, '0,0,1;1,0,0;0,1,1'):
        ((('0,0,1;1,1,0;0,1,1', 1), ('1,0,1;1,0,0;0,1,0', 1)), '0,1,0;1,0,0;1,1,1'),
    (3, 4, '0,0,1;1,0,0;0,1,2'):
        ((('1,1,0;0,1,0;2,1,1', -1), ('0,1,3;3,2,3;1,0,1', -1)), '2,2,0;1,2,0;3,2,1'),
    (3, 4, '0,0,1;1,0,0;0,1,3'):
        ((('1,1,0;0,1,0;3,1,1', -1), ('0,1,2;2,3,2;1,0,1', -1)), '3,3,0;1,3,0;2,3,1'),
}
