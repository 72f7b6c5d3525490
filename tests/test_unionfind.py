from tangles.unionfind import UnionFind


def test_find_registers_unseen_item():
    uf = UnionFind()
    assert uf.find("a") == "a"
    assert list(uf.parent) == ["a"]
    assert uf.groups() == [["a"]]


def test_union_reports_whether_classes_were_apart():
    uf = UnionFind()
    assert uf.union(1, 2)
    assert uf.union(2, 3)
    assert not uf.union(1, 3)
    assert not uf.union(4, 4)
    assert uf.find(1) == uf.find(3) != uf.find(4)


def test_groups_ordered_by_first_inserted_member():
    uf = UnionFind()
    for x in "dcba":
        uf.find(x)
    uf.union("a", "d")
    uf.union("b", "e")
    assert uf.groups() == [["d", "a"], ["c"], ["b", "e"]]
